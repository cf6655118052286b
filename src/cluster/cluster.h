/**
 * @file
 * Sharded serving cluster: N full Engine replicas on one shared virtual
 * clock behind the narrow ServingClient seam.
 *
 * Each shard is a complete Engine (own page pool, scheduler, tiers,
 * fault injector) wrapped in an EngineClient — the simulator's stand-in
 * for one GPU replica. The Router places every submitted request on a
 * shard (sticky prefix-aware by default, see router.h); streamTick()
 * advances the shard furthest behind on the shared clock, and
 * drain()/streamEnd() aggregate the per-shard metrics into one
 * cluster-wide summary.
 *
 * Shared virtual clock: every shard's run starts from the same t=0
 * arrival timeline and shards never interact mid-run, so a shard's
 * results do not depend on how its ticks interleave with other shards'
 * — the cluster makespan is the max over shards of each shard's
 * absolute finish time, exactly as if N devices ran in parallel.
 *
 * Determinism and shard-count invariance: token content derives from
 * (request id, position) and (prefix id, position) seeds only — never
 * from placement — so each request's output_hash and attn_hash are
 * byte-identical whatever shard runs it and however many shards exist,
 * for any prefix-disjoint traffic. The commutative XOR outputs_digest
 * therefore matches a single bare Engine run of the same trace, which
 * is the cluster analogue of the backend thread-count invariance tests.
 */
#ifndef BITDEC_CLUSTER_CLUSTER_H
#define BITDEC_CLUSTER_CLUSTER_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/router.h"
#include "serving/client.h"

namespace bitdec::cluster {

/** Cluster configuration: N identical replicas + routing policy. */
struct ClusterConfig
{
    int num_shards = 1;
    //! Placement policy/knobs; num_shards here is overwritten from the
    //! field above so the two can never disagree.
    RouterConfig router;
    //! Per-replica engine configuration (every shard gets its own full
    //! page pool, tiers and scheduler from this one config).
    serving::EngineConfig engine;
};

/** Cross-shard aggregate of one stream: cluster summary + per-shard
 *  breakdown + routing counters. */
struct ClusterMetrics
{
    serving::ServingMetrics aggregate; //!< cluster-wide summary
    std::vector<serving::ServingMetrics> per_shard; //!< one per shard
    RouterStats router; //!< routing counters (cumulative)
};

/** ServingClient over N Engine replicas behind a prefix-aware Router. */
class Cluster final : public serving::ServingClient
{
  public:
    Cluster(const sim::GpuArch& arch, const model::ModelConfig& model,
            const ClusterConfig& cfg);

    const serving::Request* poll(int id) const override;
    serving::ClientStats stats() const override;

    /**
     * Streaming surface (see ServingClient): every shard opens a stream
     * on the same shared virtual clock and streamTick() always advances
     * the non-idle shard whose clock is furthest behind, so the merged
     * token-event order is deterministic and each request's digests are
     * byte-identical to a single-engine run of the same trace.
     *
     * streamSnapshot()/streamEnd() (and so drain()) aggregate the
     * shards: request-level distributions (TTFT, TPOT, latency,
     * per-priority TTFT) and the outputs digest are re-folded from the
     * individual finished requests, so they are exact cluster-wide;
     * counters are summed; the step-weighted rates (avg decode batch,
     * pool utilization) and the stall percentiles are merged
     * approximately (makespan-weighted means, max for tails). With one
     * active shard the aggregate is that shard's metrics verbatim —
     * byte-identical to a bare Engine run. The full breakdown of the
     * last streamEnd() is kept in clusterMetrics().
     */
    std::string admissionError(const serving::Request& r) const override;
    void streamBegin(serving::TokenSink sink = {}) override;
    int streamSubmit(const serving::Request& r) override;
    bool streamCancel(int id) override;
    bool streamTick() override;
    bool streamIdle() const override;
    double streamClock() const override;
    serving::ServingMetrics streamSnapshot() const override;
    serving::ServingMetrics streamEnd() override;

    /** Aggregate + per-shard + router view of the most recent
     *  streamEnd() (or drain()). */
    const ClusterMetrics& clusterMetrics() const { return last_; }

    /** The shard a submitted request was placed on; -1 when unknown. */
    int shardOf(int id) const;

    int numShards() const { return static_cast<int>(shards_.size()); }

  private:
    /** Folds one stream's per-shard metrics + request records into a
     *  cluster-wide ClusterMetrics. */
    ClusterMetrics
    aggregateRound(const std::vector<serving::ServingMetrics>& per_shard,
                   const std::vector<int>& ids) const;

    ClusterConfig cfg_;
    Router router_;
    std::vector<std::unique_ptr<serving::EngineClient>> shards_;
    std::unordered_map<int, int> shard_of_; //!< request id -> shard
    std::vector<int> stream_ids_; //!< ids submitted into the open stream
    ClusterMetrics last_;
};

} // namespace bitdec::cluster

#endif // BITDEC_CLUSTER_CLUSTER_H
