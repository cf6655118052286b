#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace bitdec::cluster {

namespace {

/** Field-wise sum of two tier counter blocks. */
kv::TieredStats
operator+(const kv::TieredStats& a, const kv::TieredStats& b)
{
    kv::TieredStats s;
    s.offloaded_pages = a.offloaded_pages + b.offloaded_pages;
    s.fetched_pages = a.fetched_pages + b.fetched_pages;
    s.prefetched_pages = a.prefetched_pages + b.prefetched_pages;
    s.prefetch_hits = a.prefetch_hits + b.prefetch_hits;
    s.spilled_pages = a.spilled_pages + b.spilled_pages;
    s.dropped_pages = a.dropped_pages + b.dropped_pages;
    s.lru_drops = a.lru_drops + b.lru_drops;
    s.transfer_failures = a.transfer_failures + b.transfer_failures;
    s.checksum_failures = a.checksum_failures + b.checksum_failures;
    s.repaired_pages = a.repaired_pages + b.repaired_pages;
    s.hedged_fetches = a.hedged_fetches + b.hedged_fetches;
    return s;
}

/** Field-wise sum of two fault counter blocks. */
fault::FaultStats
operator+(const fault::FaultStats& a, const fault::FaultStats& b)
{
    fault::FaultStats s;
    s.fetch_failures = a.fetch_failures + b.fetch_failures;
    s.latency_spikes = a.latency_spikes + b.latency_spikes;
    s.corrupted_pages = a.corrupted_pages + b.corrupted_pages;
    s.alloc_failures = a.alloc_failures + b.alloc_failures;
    return s;
}

/** Samples behind a (total, mean) pair: total / mean, 0 when empty. */
double
sampleCount(double total, double mean)
{
    return mean > 0 ? total / mean : 0;
}

} // namespace

Cluster::Cluster(const sim::GpuArch& arch, const model::ModelConfig& model,
                 const ClusterConfig& cfg)
    : cfg_(cfg),
      router_([&cfg] {
          RouterConfig rc = cfg.router;
          rc.num_shards = cfg.num_shards; // single source of truth
          return rc;
      }())
{
    BITDEC_ASSERT(cfg_.num_shards >= 1, "Cluster needs >= 1 shard, got ",
                  cfg_.num_shards);
    cfg_.router.num_shards = cfg_.num_shards;
    shards_.reserve(static_cast<std::size_t>(cfg_.num_shards));
    for (int s = 0; s < cfg_.num_shards; s++)
        shards_.push_back(std::make_unique<serving::EngineClient>(
            arch, model, cfg_.engine));
    last_.per_shard.resize(static_cast<std::size_t>(cfg_.num_shards));
}

const serving::Request*
Cluster::poll(int id) const
{
    const auto it = shard_of_.find(id);
    if (it == shard_of_.end())
        return nullptr;
    return shards_[static_cast<std::size_t>(it->second)]->poll(id);
}

int
Cluster::shardOf(int id) const
{
    const auto it = shard_of_.find(id);
    return it == shard_of_.end() ? -1 : it->second;
}

ClusterMetrics
Cluster::aggregateRound(const std::vector<serving::ServingMetrics>& per_shard,
                        const std::vector<int>& ids) const
{
    const auto n = shards_.size();
    ClusterMetrics out;
    out.per_shard = per_shard;
    out.router = router_.stats();

    // Per-shard span of this round on the shared clock: the engine's
    // makespan is (final clock - first arrival), so a shard's absolute
    // end is its first non-client-canceled arrival plus its makespan.
    std::vector<double> first_arrival(
        n, std::numeric_limits<double>::infinity());
    std::vector<bool> active(n, false);
    std::vector<const serving::Request*> drained;
    drained.reserve(ids.size());
    for (const int id : ids) {
        const serving::Request* r = poll(id);
        BITDEC_ASSERT(r != nullptr, "drained id ", id, " unknown to shard");
        if (r->cancel_cause == serving::CancelCause::Client)
            continue; // never reached any engine
        const auto s = static_cast<std::size_t>(shard_of_.at(id));
        active[s] = true;
        first_arrival[s] = std::min(first_arrival[s], r->arrival_s);
        drained.push_back(r);
    }

    int num_active = 0;
    int only_active = -1;
    for (std::size_t s = 0; s < n; s++)
        if (active[s]) {
            num_active++;
            only_active = static_cast<int>(s);
        }

    if (num_active == 0) {
        out.aggregate = serving::ServingMetrics{};
        return out;
    }
    if (num_active == 1) {
        // One shard saw the whole batch: its metrics ARE the cluster
        // metrics, bit for bit. This is what makes Cluster(shards=1)
        // indistinguishable from a bare Engine.
        out.aggregate = per_shard[static_cast<std::size_t>(only_active)];
        return out;
    }

    // Cluster makespan on the shared clock: earliest arrival anywhere to
    // the latest shard finish.
    double start = std::numeric_limits<double>::infinity();
    double end = -std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < n; s++) {
        if (!active[s])
            continue;
        start = std::min(start, first_arrival[s]);
        end = std::max(end, first_arrival[s] + per_shard[s].makespan_s);
    }
    const double makespan = end - start;

    // Request-level distributions re-fold exactly from the individual
    // finished requests — TTFT/TPOT/latency percentiles, per-priority
    // TTFT, generated tokens and the XOR outputs digest are not
    // mergeable from per-shard summaries, but the requests themselves
    // are all still at hand.
    serving::MetricsCollector mc;
    for (const serving::Request* r : drained)
        if (r->state == serving::RequestState::Finished)
            mc.onFinish(*r);

    int preemptions = 0;
    long cow = 0;
    long prefill_tokens = 0;
    kv::TieredStats tier;
    fault::FaultStats faults;
    int cold = 0, recompute = 0, retries = 0, recoveries = 0;
    int shed = 0, deadline = 0;
    for (std::size_t s = 0; s < n; s++) {
        const serving::ServingMetrics& m = per_shard[s];
        preemptions += m.preemptions;
        cow += m.cow_copies;
        prefill_tokens += m.prefill_tokens;
        tier = tier + m.tier;
        faults = faults + m.faults_injected;
        cold += m.cold_resumes;
        recompute += m.recompute_resumes;
        retries += m.fetch_retries;
        recoveries += m.recompute_recoveries;
        shed += m.shed_requests;
        deadline += m.deadline_cancels;
    }
    mc.setTierStats(tier, cold, recompute);
    mc.setFaultStats(faults, retries, recoveries, shed, deadline);

    serving::ServingMetrics agg = mc.finalize(makespan, preemptions, cow);
    agg.prefill_tokens = prefill_tokens;
    const double demand =
        static_cast<double>(prefill_tokens + agg.prefix_hit_tokens);
    agg.prefix_hit_rate =
        demand > 0 ? agg.prefix_hit_tokens / demand : 0;

    // Step-weighted rates and stall tails cannot be re-derived from
    // request records; merge the per-shard summaries approximately:
    // means weighted by the time (or samples) behind them, maxima for
    // peaks and distribution tails. Exact per-shard values stay
    // available in clusterMetrics().
    double span_sum = 0, batch_w = 0, util_w = 0;
    double stall_n = 0, stall_w = 0;
    double fetch_n = 0;
    for (std::size_t s = 0; s < n; s++) {
        const serving::ServingMetrics& m = per_shard[s];
        if (!active[s])
            continue;
        span_sum += m.makespan_s;
        batch_w += m.makespan_s * m.avg_decode_batch;
        util_w += m.makespan_s * m.avg_page_utilization;
        agg.peak_page_utilization =
            std::max(agg.peak_page_utilization, m.peak_page_utilization);

        // Generated tokens approximate the decode-gap sample count.
        const double gaps = m.sustained_tokens_per_s * m.makespan_s;
        stall_n += gaps;
        stall_w += gaps * m.decode_stall_mean_s;
        agg.decode_stall_p50_s =
            std::max(agg.decode_stall_p50_s, m.decode_stall_p50_s);
        agg.decode_stall_p99_s =
            std::max(agg.decode_stall_p99_s, m.decode_stall_p99_s);
        agg.decode_stall_max_s =
            std::max(agg.decode_stall_max_s, m.decode_stall_max_s);

        agg.fetch_stall_total_s += m.fetch_stall_total_s;
        fetch_n += sampleCount(m.fetch_stall_total_s, m.fetch_stall_mean_s);
        agg.fetch_stall_p99_s =
            std::max(agg.fetch_stall_p99_s, m.fetch_stall_p99_s);
        agg.fetch_stall_max_s =
            std::max(agg.fetch_stall_max_s, m.fetch_stall_max_s);

        // Shards run concurrently on the shared clock, so resident
        // sequences add up (an upper bound: per-shard peaks need not
        // coincide).
        agg.peak_resident_seqs += m.peak_resident_seqs;

        // Identical tier layouts per shard: capacities and occupancy sum.
        if (agg.tiers.empty()) {
            agg.tiers = m.tiers;
        } else if (!m.tiers.empty()) {
            BITDEC_ASSERT(agg.tiers.size() == m.tiers.size(),
                          "shards disagree on tier layout");
            for (std::size_t t = 0; t < agg.tiers.size(); t++) {
                agg.tiers[t].capacity_pages += m.tiers[t].capacity_pages;
                agg.tiers[t].avg_used_pages += m.tiers[t].avg_used_pages;
                agg.tiers[t].peak_used_pages += m.tiers[t].peak_used_pages;
            }
        }
    }
    if (span_sum > 0) {
        agg.avg_decode_batch = batch_w / span_sum;
        agg.avg_page_utilization = util_w / span_sum;
    }
    if (stall_n > 0)
        agg.decode_stall_mean_s = stall_w / stall_n;
    if (fetch_n > 0)
        agg.fetch_stall_mean_s = agg.fetch_stall_total_s / fetch_n;

    out.aggregate = agg;
    return out;
}

std::string
Cluster::admissionError(const serving::Request& r) const
{
    if (shard_of_.find(r.id) != shard_of_.end())
        return detail::concat("duplicate request id ", r.id,
                              " submitted to cluster");
    // Shards are identical replicas, so any shard's engine answers for
    // the whole cluster (the id is known to none of them — see above).
    return shards_.front()->admissionError(r);
}

void
Cluster::streamBegin(serving::TokenSink sink)
{
    // Every shard streams into the same sink: events from different
    // shards interleave in shared-clock order (see streamTick), events
    // of one request always arrive in index order from its one shard.
    for (const auto& shard : shards_)
        shard->streamBegin(sink);
}

int
Cluster::streamSubmit(const serving::Request& r)
{
    BITDEC_ASSERT(shard_of_.find(r.id) == shard_of_.end(),
                  "duplicate request id ", r.id, " submitted to cluster");
    const int shard = router_.route(r);
    shard_of_[r.id] = shard;
    stream_ids_.push_back(r.id);
    return shards_[static_cast<std::size_t>(shard)]->streamSubmit(r);
}

bool
Cluster::streamCancel(int id)
{
    const auto it = shard_of_.find(id);
    if (it == shard_of_.end())
        return false;
    return shards_[static_cast<std::size_t>(it->second)]->streamCancel(id);
}

bool
Cluster::streamTick()
{
    // Advance the non-idle shard whose virtual clock is furthest behind:
    // the deterministic analogue of N replicas running concurrently —
    // token events merge in shared-clock order, ties break by shard
    // index.
    int behind = -1;
    double t = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < shards_.size(); s++) {
        if (shards_[s]->streamIdle())
            continue;
        const double c = shards_[s]->streamClock();
        if (c < t) {
            t = c;
            behind = static_cast<int>(s);
        }
    }
    if (behind < 0)
        return false;
    shards_[static_cast<std::size_t>(behind)]->streamTick();
    return !streamIdle();
}

bool
Cluster::streamIdle() const
{
    for (const auto& shard : shards_)
        if (!shard->streamIdle())
            return false;
    return true;
}

double
Cluster::streamClock() const
{
    // The merged stream sits at the slowest live shard's clock; with
    // everything idle, at the furthest clock any shard reached.
    double live = std::numeric_limits<double>::infinity();
    double done = 0;
    for (const auto& shard : shards_) {
        if (!shard->streamIdle())
            live = std::min(live, shard->streamClock());
        else
            done = std::max(done, shard->streamClock());
    }
    return std::isfinite(live) ? live : done;
}

serving::ServingMetrics
Cluster::streamSnapshot() const
{
    std::vector<serving::ServingMetrics> per_shard(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); s++)
        per_shard[s] = shards_[s]->streamSnapshot();
    return aggregateRound(per_shard, stream_ids_).aggregate;
}

serving::ServingMetrics
Cluster::streamEnd()
{
    std::vector<serving::ServingMetrics> per_shard(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); s++)
        per_shard[s] = shards_[s]->streamEnd();
    last_ = aggregateRound(per_shard, stream_ids_);
    stream_ids_.clear();
    return last_.aggregate;
}

serving::ClientStats
Cluster::stats() const
{
    serving::ClientStats total;
    total.shards = static_cast<int>(shards_.size());
    for (const auto& shard : shards_) {
        const serving::ClientStats s = shard->stats();
        total.submitted += s.submitted;
        total.pending += s.pending;
        total.finished += s.finished;
        total.canceled += s.canceled;
        total.total_pool_pages += s.total_pool_pages;
    }
    return total;
}

} // namespace bitdec::cluster

namespace bitdec::serving {

std::unique_ptr<ServingClient>
makeServingClient(const sim::GpuArch& arch, const model::ModelConfig& model,
                  const EngineConfig& cfg, int shards)
{
    BITDEC_ASSERT(shards >= 1, "makeServingClient needs >= 1 shard, got ",
                  shards);
    if (shards == 1)
        return std::make_unique<EngineClient>(arch, model, cfg);
    cluster::ClusterConfig cc;
    cc.num_shards = shards;
    cc.engine = cfg;
    return std::make_unique<cluster::Cluster>(arch, model, cc);
}

} // namespace bitdec::serving
