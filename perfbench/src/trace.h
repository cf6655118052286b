/**
 * @file
 * Tracing from outside the program: span logs and the two decorators the
 * traced run hands to the product through its public seams.
 *
 * - TracedClient is a serving::ServingClient around the real one; an
 *   in-process net::Server drives it, so every streamTick/streamSubmit
 *   and every token the engine emits is timed at the net/serving
 *   boundary.
 * - TracedBackend is a backend::AttentionBackend around a registered
 *   backend, added with BackendRegistry::add under its own name; the
 *   engine (or the longctx loop) resolves it like any other backend, so
 *   every decodeStep is timed at the serving/backend boundary.
 *
 * Nothing inside src/ is instrumented. Each decorator is used by one
 * thread (the server thread, or the longctx main thread), so neither
 * locks; results are read after that thread has been joined.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "backend/attention_backend.h"
#include "serving/client.h"

namespace perfbench {

/** One span: a timed call at a layer boundary. */
struct Span
{
    const char* name = "";
    double start_ms = 0;
    double end_ms = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::int32_t request = 0; //!< 0 = not tied to one request
};

/** Process-wide span id source (ids are unique across logs). */
std::uint64_t nextSpanId();

/** An append-only span list owned by one thread. */
class SpanLog
{
  public:
    /** Records a finished span and returns its id; @p id 0 draws a
     *  fresh one (pass a pre-drawn id when children need it first). */
    std::uint64_t add(const char* name, double start_ms, double end_ms,
                      std::uint64_t parent = 0, std::int32_t request = 0,
                      std::uint64_t id = 0);
    const std::vector<Span>& spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

/** Writes every span of @p logs as JSON lines (name, start_ms, end_ms,
 *  id, parent, request). @return false when the file cannot be written. */
bool writeSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/** Times every decodeStep of an inner backend. */
class TracedBackend final : public bitdec::backend::AttentionBackend
{
  public:
    /** Registers (once per process) a tracing wrapper around the backend
     *  named @p inner and returns it. Its registry name is
     *  "<inner>+trace". */
    static TracedBackend& install(const std::string& inner);

    explicit TracedBackend(const bitdec::backend::AttentionBackend& inner);

    const char* name() const override { return name_.c_str(); }
    bitdec::backend::BackendCapabilities capabilities() const override;
    bool available() const override;
    std::string unavailableReason() const override;
    const char* simdLevel() const override;
    bitdec::backend::DecodePlan
    plan(const bitdec::attn::DecodeShape& shape) const override;
    std::vector<bitdec::Tensor<float>>
    decodeStep(const bitdec::backend::DecodeBatch& batch) const override;

    /** Forgets every recorded call and span. */
    void reset() const;

    //! Parent span id for the next decodeStep (the caller's tick/step).
    mutable std::uint64_t parent = 0;
    //! Per-call wall time (ms) and item count.
    mutable std::vector<double> call_ms;
    mutable std::vector<int> call_items;
    mutable SpanLog log;

  private:
    const bitdec::backend::AttentionBackend& inner_;
    std::string name_;
};

/** Times every ServingClient call the server makes, and every token. */
class TracedClient final : public bitdec::serving::ServingClient
{
  public:
    TracedClient(bitdec::serving::ServingClient& inner,
                 const TracedBackend* backend);

    int submit(const bitdec::serving::Request& r) override;
    const bitdec::serving::Request* poll(int id) const override;
    bool cancel(int id) override;
    bitdec::serving::ServingMetrics drain() override;
    bitdec::serving::ClientStats stats() const override;
    std::string
    admissionError(const bitdec::serving::Request& r) const override;
    void streamBegin(bitdec::serving::TokenSink sink = {}) override;
    int streamSubmit(const bitdec::serving::Request& r) override;
    bool streamCancel(int id) override;
    bool streamTick() override;
    bool streamIdle() const override;
    double streamClock() const override;
    bitdec::serving::ServingMetrics streamSnapshot() const override;
    bitdec::serving::ServingMetrics streamEnd() override;

    //! Per-tick start (nowMs()) and wall time (ms), per-submit wall time.
    std::vector<double> tick_start_ms;
    std::vector<double> tick_ms;
    std::vector<double> submit_ms;
    //! Tokens the engine emitted through the sink.
    long tokens = 0;
    //! Server-thread CPU time inside every ServingClient call (s), and
    //! the wall time (ms) of the part spent back in the server's token
    //! sink, which is net work (short calls: wall ~ CPU).
    mutable double client_cpu_s = 0;
    double sink_ms = 0;
    SpanLog log;

  private:
    bitdec::serving::ServingClient& inner_;
    const TracedBackend* backend_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
