/**
 * @file
 * The benchmark's own helpers: percentile reporting, the seeded request
 * generators, the TPOT definition and the computed-bytes formula.
 * perfbench/tests/selftest.cc pins each of them down.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bitdec::kv {
class PackedHeadCache;
} // namespace bitdec::kv

namespace perfbench {

/** Milliseconds on the steady clock since an arbitrary process epoch. */
double nowMs();

/** A percentile as reported: value, the percentile actually used, the
 *  sample count and how many samples lie beyond it. */
struct Pct
{
    double value = 0;
    double pct = 0;       //!< percentile actually reported
    std::size_t n = 0;    //!< sample count
    std::size_t beyond = 0; //!< samples strictly above the reported rank
};

/**
 * Nearest-rank percentile @p target of @p v, lowered to the highest
 * percentile that still has at least 10 samples beyond it (a tail needs
 * ten samples to be a tail). Never lowered below the median: with fewer
 * than 20 samples the median is reported and `beyond` says how thin it
 * is. An empty sample gives n = 0 and value 0.
 */
Pct tailPct(std::vector<double> v, double target);

/** Plain nearest-rank median (tailPct(v, 50).value). */
double median(std::vector<double> v);

/** Arithmetic mean (0 for an empty sample). */
double mean(const std::vector<double>& v);

/**
 * Time per output token of one request: (last - first) / (n - 1).
 * Returns a negative value for requests with fewer than two tokens,
 * which have no inter-token gap and are left out of TPOT.
 */
double tpotMs(double first_ms, double last_ms, int tokens);

/** The request shapes the wire workloads draw from. */
enum class Profile
{
    Chat, //!< prompts ~LogN(192) in [64, 512], outputs ~LogN(24) in [8, 48]
    Rag,  //!< 12,288-token prefix from 4 families + ~LogN(4096) tail;
          //!< outputs ~LogN(64) in [16, 128]
};

/** One generated request: what the SUBMIT frame carries. */
struct Shape
{
    int id = 0;
    int prompt_tokens = 0;
    int output_tokens = 0;
    std::uint64_t prefix_id = 0;
    int prefix_tokens = 0;
};

/** The request with id @p id of workload seed @p seed: a pure function
 *  of (profile, seed, id), so any thread may draw any id and a replay
 *  draws the same request. */
Shape requestShape(Profile profile, std::uint64_t seed, int id);

/** Poisson arrival schedule: due times (ms from phase start) at
 *  @p rate_per_s over @p duration_ms, drawn from @p seed. */
std::vector<double> poissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double duration_ms);

/**
 * Bytes one decode step reads from a packed head cache, computed from
 * tensor sizes (not measured): every packed key/value block's words and
 * scale/zero parameters, plus the live FP16 residual rows of K and V.
 */
double computedStepBytes(const bitdec::kv::PackedHeadCache& cache);

/** Peak resident set (VmHWM) of a process in MiB; pid 0 = this one.
 *  Negative when /proc does not report it. */
double peakRssMb(int pid);

/** Minimal JSON number lookup in a flat-ish JSON text: the number after
 *  the first occurrence of "key": (nested keys like tier.offloaded_pages
 *  are found by their leaf name). NaN when absent. */
double jsonNumber(const std::string& json, const std::string& key);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
