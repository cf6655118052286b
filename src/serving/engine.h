/**
 * @file
 * Continuous-batching serving engine on a virtual clock.
 *
 * Each tick the engine admits arrived requests (FCFS or priority-with-
 * aging, see SchedulerConfig::policy), asks the scheduler for the tick's
 * append plan (Scheduler::planTick) — one token per DECODE request plus
 * budget-shared prefill chunks, interleaved in the same tick under the
 * unified SchedulerConfig::prefill_chunk_tokens budget — executes it
 * against the functional paged KV cache, and advances the clock by the
 * step latency the analytical model charges for the configured system
 * (FP16 FlashDecoding, KIVI, QServe or BitDecoding). Because the budget
 * caps the tokens any tick can append, a 100K-token prompt prefills
 * across many bounded ticks instead of stalling every decoding request
 * for one monolithic multi-second tick; the gap between a request's
 * consecutive output tokens is reported as the decode-stall distribution
 * (ServingMetrics::decode_stall_*). Page-pool exhaustion mid-step
 * triggers preempt-and-recompute via the scheduler; no request is ever
 * dropped.
 *
 * Requests that declare a shared prefix (Request::prefix_id) ride the
 * cache's prefix index: the first request to prefill the prefix publishes
 * its packed pages, later admissions map them with a refcount bump and
 * skip straight past the shared tokens — saved prefill work shows up in
 * ServingMetrics::prefix_hit_tokens and in cheaper step latencies.
 * Divergence after a shared partially-filled page is handled by
 * copy-on-write inside the cache, and pinned prefix pages nobody maps are
 * evicted under pool pressure.
 *
 * Two concerns are deliberately decoupled:
 *  - Capacity is modeled in page *counts*: the pool size is derived from
 *    the device HBM budget and the system's KV bytes per token, so a 4-bit
 *    cache gets ~4x the pages of FP16 for the same device.
 *  - Content is modeled in a narrow functional cache (cache_head_dim wide,
 *    one representative head) so token data stays cheap to store while
 *    preemption/resume correctness remains observable: every decode token
 *    folds the previously cached key row into the request's output hash.
 */
#ifndef BITDEC_SERVING_ENGINE_H
#define BITDEC_SERVING_ENGINE_H

#include <functional>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "gpusim/arch.h"
#include "kvcache/paged_cache.h"
#include "kvcache/tiered_cache.h"
#include "model/decode_sim.h"
#include "model/model_config.h"
#include "serving/metrics.h"
#include "serving/request.h"
#include "serving/scheduler.h"

namespace bitdec::backend {
class AttentionBackend;
} // namespace bitdec::backend

namespace bitdec::serving {

/** Engine configuration. */
struct EngineConfig
{
    model::SystemKind system = model::SystemKind::BitDecoding;
    int bits = 4; //!< KV bit width for low-bit systems

    SchedulerConfig sched;

    int page_size = 64;     //!< tokens per KV page
    int num_pages = 0;      //!< pool size; 0 derives it from device HBM
    int cache_head_dim = 8; //!< functional cache width (content modeling)

    double max_clock_s = 1e6; //!< safety stop for runaway configurations

    /**
     * Per-step functional attention backend, by registry name (see
     * src/backend/ and `bench_serving_e2e --list-backends`). When
     * non-empty, every decode step resolves this backend and runs one
     * decode-attention batch over the decoding requests' page tables,
     * folding each output into the request's attn_hash. The name is
     * validated at engine construction: an unknown name is a fatal error
     * listing the registered backends (never a silent fallback), and the
     * backend must be able to serve the paged FP16 cache. Empty (the
     * default) skips the numeric work entirely.
     */
    std::string backend;
    exec::ThreadPool* pool = nullptr; //!< pool for the per-step attention
                                      //!< fan-out; null = inline

    /**
     * Cold KV tiers (host RAM / disk) layered under the hot page pool.
     * Empty tier list (the default) disables tiering: preemption drops
     * pages (recompute policy) and parked idle sessions hold hot pages
     * until pool pressure evicts them. With tiers configured, preemption
     * and idle parking offload packed pages instead, resume demand-
     * fetches them (plus lookahead prefetch) and decode is gated on full
     * residency — the clock pays the transfer, the digests never change.
     * TieredConfig::bytes_per_page == 0 derives the packed page size from
     * the model and bit width (the 4-bit page crosses tiers 4x denser
     * than FP16).
     */
    kv::TieredConfig tiered;

    /**
     * Fault-injection plan for chaos runs (empty = no injection, the
     * default). Faults fire on the tiered transfer/offload paths —
     * fetch failures, latency spikes, page corruption, transient
     * hot-alloc failures — at the schedule's rates, decided
     * deterministically from fault_seed, so a chaos run replays
     * bit-for-bit. The recovery contract: every injected fault is
     * detected (checksums, status codes) and recovered (retry with
     * backoff, then recompute from seeds) with the run's outputs_digest
     * byte-identical to a fault-free run of the same trace.
     */
    fault::FaultSchedule faults;
    std::uint64_t fault_seed = 0xB17DEC; //!< chaos-run identity

    /** Retry/backoff policy for transient cold-fetch failures. */
    fault::RetryPolicy retry;

    /**
     * Fails fast on out-of-range or contradictory fields, naming each
     * offender (matching the backend registry's fail-fast style: never
     * a silent clamp or fallback). Engine construction calls this once,
     * so every bad configuration dies at the same place with the same
     * message regardless of which bench, example or test built it.
     */
    void validate() const;
};

/**
 * One output token appended during a stream run, observed the moment the
 * tick that produced it completes (virtual clock already advanced). The
 * fold value is exactly the term the engine mixed into the request's
 * output_hash, so a remote observer can reproduce the final digest by
 * folding every event in index order:
 *   h = h * 0x100000001B3 ^ fold   (starting from h = 0).
 * A missed or reordered token frame therefore shows up as a digest
 * mismatch against DONE — this is what makes streamed delivery testable
 * byte-for-byte against an in-process run.
 */
struct TokenEvent
{
    int request_id = 0;
    int index = 0;             //!< output token index, 0-based, contiguous
    std::uint64_t fold = 0;    //!< term folded into output_hash
    std::uint64_t output_hash = 0; //!< running hash after this token
    double clock_s = 0;        //!< virtual time the token appeared
};

/** Per-token observer for stream runs; empty = no observation cost. */
using TokenSink = std::function<void(const TokenEvent&)>;

/** Continuous-batching serving engine. */
class Engine
{
  public:
    Engine(const sim::GpuArch& arch, const model::ModelConfig& model,
           const EngineConfig& cfg);

    /**
     * Runs @p requests to completion and returns the run's metrics.
     * Requests are mutated in place (timestamps, hashes, final states), so
     * callers can inspect per-request results afterwards. Every request
     * must individually fit the page pool; traces that cannot ever finish
     * are a fatal configuration error.
     *
     * Implemented on the stream API below (begin, add all in arrival
     * order, tick until idle, end), so a batch run and an incrementally
     * pumped run of the same trace execute the identical operation
     * sequence — same clock jumps, same digests, byte for byte.
     */
    ServingMetrics run(std::vector<Request>& requests);

    // ------------------------------------------------ stream pump API --
    //
    // The incremental face of run() for live front ends (src/net/): the
    // caller owns Request storage (pointers must stay valid until
    // streamEnd), feeds requests as they arrive, and advances the
    // virtual clock one scheduling round at a time. Between ticks it may
    // observe per-request state, cancel mid-flight requests, and snapshot
    // metrics. Mixing with run() mid-stream is an error.

    /** Starts an incremental run; @p sink observes every output token. */
    void streamBegin(TokenSink sink = {});

    /**
     * Non-fatal admission validation: the exact message run() would die
     * with for @p r (invalid lengths/prefix/idle/deadline shape, or a
     * request that can never fit the page pool), empty when admissible.
     * One source of truth, so a network front end rejects with the same
     * fail-fast text the CLI prints.
     */
    std::string admissionError(const Request& r) const;

    /**
     * Adds @p r to the live run. The request must pass admissionError
     * (checked; violations are fatal — remote callers check first) and
     * the pointer must outlive the stream. Arrivals earlier than the
     * current clock are admitted at the next tick.
     */
    void streamAdd(Request* r);

    /**
     * Advances the run by one scheduling round: arrivals, cancellations,
     * admission, one planned tick of appends (or one idle clock jump).
     * @return false when every added request is finished or canceled —
     * the stream is idle and the clock holds until more work arrives.
     */
    bool streamTick();

    /**
     * Mid-run cancel hook: cleanly cancels the live request @p id
     * (removed from the scheduler, pages freed, state CANCELED with
     * CancelCause::Client — whether queued, prefilling, decoding, parked
     * or preempted). A request whose arrival the clock has not reached
     * leaves the run as if never added: it touches neither the clock
     * nor the metrics and keeps finish_s at -1. @return false when the
     * id is unknown or already done.
     */
    bool streamCancel(int id);

    /** True when no added request still needs engine work. */
    bool streamIdle() const;

    /** Current virtual clock of the stream (first pending arrival before
     *  the first tick; the last batch run's final clock otherwise). */
    double streamClock() const;

    /** Metrics snapshot of the stream so far (finalized copy; the run
     *  keeps going). Powers the wire protocol's STATS frame. */
    ServingMetrics streamSnapshot() const;

    /** Ends the incremental run and returns its metrics. */
    ServingMetrics streamEnd();

    /** Page-pool size the engine operates with. */
    int numPages() const { return cache_.totalPages(); }

    /** Read-only view of the paged KV pool (prefix index, refcounts). */
    const kv::PagedHeadCache& cache() const { return cache_; }

    /** Read-only view of the tiered pool (occupancy, transfer stats). */
    const kv::TieredPagePool& tieredPool() const { return pool_; }

    /**
     * Pool pages a device budget affords: HBM minus weights, activations
     * and allocator overhead, divided by the system's per-page KV bytes
     * (all layers and KV heads). This is where a low-bit cache turns into
     * serving capacity.
     */
    static int derivePoolPages(const sim::GpuArch& arch,
                               const model::ModelConfig& model,
                               const EngineConfig& cfg);

  private:
    /** Writes token @p pos of request @p r into the cache (OOM is a bug:
     *  the step planner must have ensured headroom). */
    void appendToken(Request& r, int pos);

    /** Step latency charged for this tick's decode batch and prefill. */
    double stepLatency(int decode_batch, long decode_len_sum,
                       int prefill_tokens) const;

    /** cfg_.tiered with bytes_per_page derived from the model and bit
     *  width when unset (packed low-bit pages cross tiers). */
    kv::TieredConfig resolvedTieredConfig() const;

    /**
     * Demand-fetches the cold pages gating @p r this tick (a decoding
     * request needs its whole sequence, a prefilling one only the partial
     * page it appends into), charging transfer latency via
     * Request::fetch_ready_s. A sequence whose cold payload was dropped
     * is reset to recompute. @return pages still missing because the hot
     * pool ran dry (the caller adds them to its preemption demand).
     */
    int ensureResident(Request& r, double now, MetricsCollector& mc);

    /** Drops @p r's sequence for a from-scratch, digest-identical
     *  re-prefill (cold payload lost, or untiered idle eviction). */
    void dropToRecompute(Request& r);

    /**
     * Cleanly cancels @p r (graceful degradation): removes it from the
     * scheduler, frees its sequence and pages, stamps state CANCELED
     * with @p cause at time @p now. A canceled request folds nothing
     * into the run's outputs_digest.
     */
    void cancelRequest(Request& r, CancelCause cause, double now);

    /** Offloads (tiered) or drops (untiered) the pages of the
     *  least-recently-active parked idle session; false when none. */
    bool evictIdleVictim(double now);

    /** Sequence ids of the running batch (offload protection set). */
    std::vector<int> runningSeqs() const;

    /** Earliest pending completion deadline; +inf when none. */
    double nextDeadline() const;

    /**
     * Where an idle clock jump lands: the earliest tier-fetch gate of a
     * running request, next arrival, idle wake, deadline or shed
     * deadline; +inf when nothing is pending.
     */
    double nextEventTime() const;
    ServingMetrics finalizeMetrics() const;

    const sim::GpuArch& arch_;
    const model::ModelConfig& model_;
    EngineConfig cfg_;
    model::E2EConfig e2e_;
    kv::PagedHeadCache cache_;
    kv::TieredPagePool pool_;
    Scheduler sched_;
    //! Sequences offloaded and awaiting their resume fetch: resolves to
    //! a cold resume (pages fetched back) or a recompute (payload lost).
    std::unordered_set<int> pending_resume_;
    int cold_resumes_ = 0;
    int recompute_resumes_ = 0;
    //! Fault decisions for the tiered transfer paths (armed into pool_;
    //! an empty schedule decides "no fault" in one branch).
    fault::FaultInjector injector_;
    int fetch_retries_ = 0;        //!< transient-fault retries taken
    int recompute_recoveries_ = 0; //!< fault-driven recompute escalations
    int shed_requests_ = 0;        //!< admission-TTL cancellations
    int deadline_cancels_ = 0;     //!< deadline cancellations
    //! Resolved EngineConfig::backend; null when per-step attention is off.
    const backend::AttentionBackend* attn_backend_ = nullptr;

    // --- stream-run state (one run(), or one streamBegin..streamEnd) ---
    bool stream_active_ = false;
    TokenSink sink_;
    //! Live requests in arrival order (ties keep add order) — the
    //! stream-mode twin of run()'s sorted `order` vector.
    std::vector<Request*> live_;
    std::size_t next_arrival_ = 0; //!< first live_ slot not yet enqueued
    int finished_ = 0;             //!< done (finished or canceled) count
    double clock_ = 0;
    bool clock_started_ = false; //!< clock_ seeded from the first arrival
    //! Earliest arrival that reached the clock (the makespan's start).
    double first_arrival_ = std::numeric_limits<double>::infinity();
    MetricsCollector mc_;
};

} // namespace bitdec::serving

#endif // BITDEC_SERVING_ENGINE_H
