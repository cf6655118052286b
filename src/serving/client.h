/**
 * @file
 * Narrow serving-client API: the only seam benches, examples and tests
 * use to drive a serving run.
 *
 * A ServingClient accepts requests (submit), exposes their state
 * (poll), supports cancellation (cancel), runs everything submitted
 * since the last drain to completion on the virtual clock (drain) and
 * reports queue/pool counters (stats). It deliberately exposes none of
 * the engine's internals — no scheduler, no cache, no clock — so the
 * same driver code runs against one Engine or a sharded Cluster
 * (src/cluster/) unchanged, and shard-count invariance of the run
 * digests is testable the same way thread-count invariance is.
 *
 * Execution model: the engine's clock is virtual, and there is one way
 * to run it — the stream (streamBegin..streamEnd) that live front ends
 * pump tick by tick. submit/cancel/drain are a helper stream over the
 * same calls: the first submit opens a stream, cancel cancels inside
 * it, and drain ticks it until idle and closes it, returning the run's
 * ServingMetrics; poll reads back the final per-request state
 * (timestamps, hashes, cancel cause). Submissions compose across
 * drains: each drain covers the requests submitted since the previous
 * one. Mixing an explicitly opened stream with batch calls is a caller
 * error.
 */
#ifndef BITDEC_SERVING_CLIENT_H
#define BITDEC_SERVING_CLIENT_H

#include <deque>
#include <memory>
#include <unordered_map>

#include "gpusim/arch.h"
#include "model/model_config.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/request.h"

namespace bitdec::serving {

/** Aggregate queue/pool counters a ServingClient reports. */
struct ClientStats
{
    int submitted = 0; //!< requests accepted since construction
    int pending = 0;   //!< submitted but not yet drained (nor canceled)
    int finished = 0;  //!< requests that completed across all drains
    int canceled = 0;  //!< client cancels plus engine-side cancellations
    int shards = 1;    //!< engine replicas behind this client
    int total_pool_pages = 0; //!< hot KV pages across every shard
};

/**
 * The serving seam. Both the single-engine client (EngineClient) and
 * the sharded Cluster implement exactly this surface.
 */
class ServingClient
{
  public:
    virtual ~ServingClient() = default;

    /**
     * Accepts a request for the next drain: opens the helper stream on
     * first use, then streamSubmit(). Only the workload fields are read
     * (id, arrival, lengths, prefix, priority, idle shape, deadline);
     * runtime fields are reset internally. Request ids must be unique
     * across the client's lifetime. @return the request id.
     */
    virtual int submit(const Request& r);

    /**
     * Read-only view of a submitted request — before its drain the
     * queued copy, afterwards the final state (timestamps, hashes,
     * cancel cause). Null for an unknown id. The pointer stays valid
     * until the client is destroyed.
     */
    virtual const Request* poll(int id) const = 0;

    /**
     * Cancels a request submitted since the last drain: it is marked
     * CANCELED with CancelCause::Client and excluded from the drain's
     * metrics and outputs_digest. @return false when the id is unknown,
     * already canceled, or the request already ran.
     */
    virtual bool cancel(int id);

    /**
     * Ticks the helper stream until idle, closes it and returns the
     * run's metrics. Draining with nothing submitted returns empty
     * metrics. Results are read back via poll().
     */
    virtual ServingMetrics drain();

    /** Aggregate counters; callable at any point. */
    virtual ClientStats stats() const = 0;

    // ------------------------------------------------------------------
    // Streaming surface: the one way a run executes. A front end
    // (src/net/) opens a stream once, then interleaves submissions,
    // cancels and ticks while reading token events from the sink; the
    // batch calls above drive the same surface. Batch calls
    // (submit/cancel/drain) must not be mixed into an explicitly opened
    // stream.
    // ------------------------------------------------------------------

    /**
     * Why a request would be rejected, without terminating the process:
     * the exact message submit()/run() would fail fast with (duplicate
     * id, empty prompt, impossible fit, bad prefix/idle/deadline
     * shape), or an empty string when the request is admissible.
     */
    virtual std::string admissionError(const Request& r) const = 0;

    /**
     * Opens a stream. @p sink (may be empty) observes every generated
     * token as a TokenEvent in deterministic batch order.
     */
    virtual void streamBegin(TokenSink sink = {}) = 0;

    /**
     * Submits into the open stream. The request joins the run at its
     * arrival time even mid-pump (arrivals in the virtual future).
     * Fails fast on an inadmissible request — call admissionError
     * first to reject gracefully. @return the request id.
     */
    virtual int streamSubmit(const Request& r) = 0;

    /**
     * Cancels a live in-stream request (CancelCause::Client), freeing
     * its pages. @return false when the id is unknown to the stream or
     * the request already finished.
     */
    virtual bool streamCancel(int id) = 0;

    /**
     * Advances the open stream by one scheduler tick; token events fire
     * into the sink as decode progresses. @return false when every
     * submitted request has finished (the stream is idle).
     */
    virtual bool streamTick() = 0;

    /** True when the open stream has no unfinished requests. */
    virtual bool streamIdle() const = 0;

    /** The stream's virtual clock (next arrival before the first tick). */
    virtual double streamClock() const = 0;

    /** Metrics of the stream so far, without closing it. */
    virtual ServingMetrics streamSnapshot() const = 0;

    /**
     * Closes the stream and returns its metrics; requires streamIdle()
     * (pump streamTick() or cancel stragglers first). Results are read
     * back via poll(), same as after a drain.
     */
    virtual ServingMetrics streamEnd() = 0;

  private:
    bool batch_open_ = false; //!< submit() opened the helper stream
};

/** ServingClient over one Engine replica. */
class EngineClient final : public ServingClient
{
  public:
    EngineClient(const sim::GpuArch& arch, const model::ModelConfig& model,
                 const EngineConfig& cfg);

    const Request* poll(int id) const override;
    ClientStats stats() const override;

    std::string admissionError(const Request& r) const override;
    void streamBegin(TokenSink sink = {}) override;
    int streamSubmit(const Request& r) override;
    bool streamCancel(int id) override;
    bool streamTick() override;
    bool streamIdle() const override;
    double streamClock() const override;
    ServingMetrics streamSnapshot() const override;
    ServingMetrics streamEnd() override;

  private:
    Engine engine_;
    //! All requests ever submitted; deque keeps poll() pointers stable.
    std::deque<Request> store_;
    std::unordered_map<int, std::size_t> index_; //!< id -> store_ slot
    //! store_ slot where the open (or next) stream begins: every
    //! submission appends inside a stream, so the stream owns the tail.
    std::size_t stream_slots_ = 0;
    int finished_ = 0;
    int canceled_ = 0;
};

/**
 * Factory for the common driver pattern: one shard returns a plain
 * EngineClient, more returns a Cluster (src/cluster/) of @p shards full
 * Engine replicas, each configured with @p cfg, fronted by the default
 * sticky prefix-aware router.
 */
std::unique_ptr<ServingClient>
makeServingClient(const sim::GpuArch& arch, const model::ModelConfig& model,
                  const EngineConfig& cfg, int shards = 1);

} // namespace bitdec::serving

#endif // BITDEC_SERVING_CLIENT_H
