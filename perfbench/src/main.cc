/**
 * @file
 * perfbench: one benchmark run.
 *
 *   perfbench --workload=chat|rag|longctx --seed=<n> --seconds=<s>
 *             --trace=0|1 --server=<bitdec_server> --out-dir=<dir>
 *
 * Prints a human-readable report (every metric with its unit and sample
 * count, host facts, the correctness verdict), then, as the last line,
 * one JSON object: {"correct", "attempted", "failed", "metrics"}. The
 * metrics are BENCHMARK.json's end_to_end list untraced and its
 * per_layer list traced. Exit status 0 only when every check passed.
 */
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sched.h>
#include <unistd.h>

#include "backend/attention_backend.h"
#include "bench.h"
#include "exec/simd/dispatch.h"

namespace perfbench {

int
hostThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
}

const std::vector<std::pair<std::string, std::string>>&
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"net.submit_ack_us_p50", "us"},
        {"net.loop_self_cpu_s", "s"},
        {"net.frames_rx", "count"},
        {"net.bytes_rx", "bytes"},
        {"serving.tick_count", "count"},
        {"serving.tick_us_p50", "us"},
        {"serving.tick_us_p99", "us"},
        {"serving.tick_us_first_decile", "us"},
        {"serving.tick_us_last_decile", "us"},
        {"serving.tick_busy_share", "ratio"},
        {"serving.submit_us_p50", "us"},
        {"serving.tokens_per_tick", "tokens"},
        {"serving.preemptions", "count"},
        {"serving.avg_decode_batch", "items"},
        {"serving.shed_requests", "count"},
        {"kvcache.prefix_hit_rate", "ratio"},
        {"kvcache.avg_page_utilization", "ratio"},
        {"kvcache.offloaded_pages", "count"},
        {"kvcache.fetched_pages", "count"},
        {"kvcache.prefetch_hit_ratio", "ratio"},
        {"kvcache.cold_resumes", "count"},
        {"kvcache.recompute_resumes", "count"},
        {"backend.decode_calls", "count"},
        {"backend.items_per_call", "items"},
        {"backend.decode_us_per_item_p50", "us"},
        {"backend.decode_share_of_tick", "ratio"},
        {"core.prefill_ns_per_elem", "ns"},
        {"core.append_us_p50", "us"},
        {"core.append_us_max", "us"},
        {"exec.step_ms_1t", "ms"},
        {"exec.step_ms_nt", "ms"},
        {"exec.thread_scaling", "ratio"},
        {"exec.single_head_scaling", "ratio"},
        {"exec.computed_bytes_per_step", "bytes"},
        {"exec.computed_gbps", "GB/s"},
        {"bench.trace_overhead_ratio", "ratio"},
    };
    return names;
}

void
completePerLayer(Report& r)
{
    std::vector<Metric> ordered;
    for (const auto& [name, unit] : perLayerMetrics()) {
        Metric m{name, 0, unit, 0, 0};
        for (const Metric& have : r.metrics)
            if (have.name == name)
                m = have;
        ordered.push_back(m);
    }
    r.metrics = std::move(ordered);
}

namespace {

void
onWatchdog(int)
{
    // Async-signal-safe: kill the spawned server, then leave.
    const int pid = g_server_pid.load();
    if (pid > 0)
        kill(pid, SIGKILL);
    const char msg[] = "perfbench: watchdog expired, run aborted\n";
    (void)!write(STDERR_FILENO, msg, sizeof(msg) - 1);
    _exit(3);
}

bool
parseArgs(int argc, char** argv, Options& o)
{
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        const std::size_t eq = a.find('=');
        const std::string key = a.substr(0, eq);
        const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
        char* end = nullptr;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0')
                return false;
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(o.seconds > 0))
                return false;
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                return false;
            o.trace = val == "1";
        } else if (key == "--server") {
            o.server_path = val;
        } else if (key == "--out-dir") {
            o.out_dir = val;
        } else {
            return false;
        }
    }
    return o.workload == "chat" || o.workload == "rag" ||
           o.workload == "longctx";
}

void
printMetric(const Metric& m)
{
    std::printf("  %-34s %14.6g %-9s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0 && m.pct > 0)
        std::printf(" p%.4g of %zu samples", m.pct, m.samples);
    else if (m.samples > 0)
        std::printf(" %zu samples", m.samples);
    std::printf("\n");
}

} // namespace

} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    using namespace bitdec;
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload=chat|rag|longctx "
                     "--seed=<n> --seconds=<s> --trace=0|1 "
                     "--server=<bitdec_server> [--out-dir=<dir>]\n");
        return 2;
    }
    // Every run ends within 180 s; the longest legitimate one is far
    // shorter, so a hang is a failure, not a slow run.
    std::signal(SIGALRM, onWatchdog);
    alarm(170);

    Report rep;
    if (opts.workload == "chat")
        rep = runChat(opts);
    else if (opts.workload == "rag")
        rep = runRag(opts);
    else
        rep = runLongctx(opts);
    if (opts.trace)
        completePerLayer(rep);

    for (Metric& m : rep.metrics)
        if (!std::isfinite(m.value)) {
            rep.fail("metric " + m.name + " is not finite");
            m.value = 0;
        }
    if (rep.attempted == 0)
        rep.fail("no work was attempted");

    const backend::AttentionBackend& packed = packedBackend();
    std::printf("perfbench %s: seed %llu, %.6g s, %s\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? "traced (per-layer metrics)"
                           : "untraced (end-to-end metrics)");
    std::printf("  host.nproc = %d\n", hostThreads());
    std::printf("  host.cpu_features = %s\n",
                exec::simd::describeCpuFeatures().c_str());
    std::printf("  host.max_simd_level = %s\n",
                exec::simd::toString(exec::simd::maxSupportedLevel()));
    std::printf("  longctx.simd_level = %s (%s)\n", packed.simdLevel(),
                packed.name());
    std::printf("  build_type = %s\n", PERFBENCH_BUILD_TYPE);
    for (const auto& [k, v] : rep.facts)
        std::printf("  %s = %s\n", k.c_str(), v.c_str());
    std::printf("metrics:\n");
    for (const Metric& m : rep.metrics)
        printMetric(m);
    if (!rep.extra.empty()) {
        std::printf("reported, not gated:\n");
        for (const Metric& m : rep.extra)
            printMetric(m);
    }
    std::printf("  %-34s %14.6g %-9s %ld of %ld attempted\n", "failed_ratio",
                rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                        static_cast<double>(rep.attempted)
                                  : 0.0,
                "ratio", rep.failed, rep.attempted);
    std::printf("verdict: %s\n", rep.correct() ? "correct" : "INCORRECT");
    for (const std::string& e : rep.errors)
        std::printf("  error: %s\n", e.c_str());

    std::string json = "{\"correct\": ";
    json += rep.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); i++) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", rep.metrics[i].value);
        json += (i > 0 ? ", \"" : "\"") + rep.metrics[i].name +
                "\": {\"value\": " + num + ", \"unit\": \"" +
                rep.metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return rep.correct() ? 0 : 1;
}
