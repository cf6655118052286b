/**
 * @file
 * What one benchmark run takes and gives back, and the three workload
 * entry points (wire.cc: chat and rag; longctx.cc: longctx).
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bitdec::backend {
class AttentionBackend;
} // namespace bitdec::backend

namespace perfbench {

/** Pid of the spawned bitdec_server while one runs, else -1 (read by
 *  the watchdog's signal handler, which kills it before exiting). */
extern std::atomic<int> g_server_pid;

/** CPUs this process may run on (what `nproc` prints). */
int hostThreads();

/** The highest fused-packed sibling this host can run (longctx's
 *  backend; its SIMD level is recorded next to every result). */
const bitdec::backend::AttentionBackend& packedBackend();

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string server_path; //!< the bitdec_server binary to spawn
    std::string out_dir;     //!< where the traced run writes its spans
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0; //!< 0 = a single measurement or a count
    double pct = 0;          //!< percentile actually reported, if any
};

/** Everything one run reports. */
struct Report
{
    //! The metrics of the run's mode: BENCHMARK.json's end_to_end list
    //! untraced, its per_layer list traced. Printed last, as JSON.
    std::vector<Metric> metrics;
    //! Further figures for the human-readable report (tails whose
    //! sample is too thin to gate, per-phase counts, host facts).
    std::vector<Metric> extra;
    std::vector<std::pair<std::string, std::string>> facts;

    long attempted = 0;
    long failed = 0;
    std::vector<std::string> errors; //!< correctness failures

    void add(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 0, double pct = 0)
    {
        metrics.push_back({name, value, unit, samples, pct});
    }
    void note(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0, double pct = 0)
    {
        extra.push_back({name, value, unit, samples, pct});
    }
    void fail(const std::string& why) { errors.push_back(why); }
    bool correct() const { return errors.empty(); }
};

Report runChat(const Options& opts);
Report runRag(const Options& opts);
Report runLongctx(const Options& opts);

/** Per-layer metrics a workload does not exercise are reported as 0
 *  (the layer did no work); this lists every per-layer name and unit
 *  in BENCHMARK.json order so each traced run reports all of them. */
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

/** Fills every per-layer metric @p r does not carry yet with 0 and
 *  orders them as perLayerMetrics() does. */
void completePerLayer(Report& r);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
