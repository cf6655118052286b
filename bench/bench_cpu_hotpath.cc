/**
 * @file
 * CPU hot-path bench: decode-step latency of a registry-resolved
 * attention backend vs the legacy warp/register-emulated Packing Kernel,
 * across context lengths and thread counts. Writes machine-readable
 * BENCH_cpu_hotpath.json so the perf trajectory is tracked across PRs.
 *
 * Modes:
 *   (default)          full sweep: 4K/32K/128K contexts, 1/4/8 threads
 *   --smoke            4K only, one repetition — the CI perf gate
 *   --backend=<name>   backend to sweep (default fused-packed); CI runs
 *                      the smoke gate once per fused backend
 *   --list-backends    capability matrix; =fused prints the gated names
 *
 * Every context also times HeadDecoder::prefill of its K/V on its own
 * (median over the repetitions, reported as prefill_ms, not gated): the
 * quantize/pack layer of the packed cache. And it splits the packed
 * decode step of one head on one thread into its two phases, for every
 * kernel-table level this host supports (medians, not gated):
 * dequant_ms runs dequant_linear over every K and V block, fold_ms runs
 * fold_tile once per block over a dequantized tile.
 *
 * The legacy path at 128K is extrapolated linearly from 32K (it is
 * O(context) and already dominates the full-sweep runtime); the JSON
 * marks it "legacy_estimated": true. The legacy kernel is the same
 * baseline for every backend — the gate is a regression tripwire for
 * the registered hot paths, not a like-for-like bandwidth comparison.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "backend/harness.h"
#include "backend/registry.h"
#include "bench_util.h"
#include "serving/options.h"
#include "core/bitdecoding.h"
#include "core/packing_kernel.h"
#include "exec/fused_attention.h"
#include "exec/simd/dispatch.h"
#include "exec/thread_pool.h"

namespace bitdec {
namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-N wall time of fn, in milliseconds. */
template <typename Fn>
double
timeMs(int reps, Fn&& fn)
{
    double best = 1e300;
    for (int i = 0; i < reps; i++) {
        const double t0 = nowMs();
        fn();
        best = std::min(best, nowMs() - t0);
    }
    return best;
}

/** The packed decode step of one head on one thread, by phase. */
struct PhaseTimes
{
    const char* level;
    double dequant_ms; //!< median: dequant_linear of every K and V block
    double fold_ms;    //!< median: fold_tile once per block
};

/** Median of @p reps wall times of fn, in milliseconds. */
template <typename Fn>
double
medianMs(int reps, Fn&& fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; i++) {
        const double t0 = nowMs();
        fn();
        t.push_back(nowMs() - t0);
    }
    std::nth_element(t.begin(), t.begin() + reps / 2, t.end());
    return t[static_cast<std::size_t>(reps / 2)];
}

/**
 * Times the two phases of the fused packed step on @p cache for every
 * supported level: all blocks' dequant into the driver's scratch tiles,
 * and one fold per block of a dequantized tile (with P rounding, as the
 * driver folds).
 */
std::vector<PhaseTimes>
packedPhases(const kv::PackedHeadCache& cache, const Tensor<Half>& q,
             float scale, int reps)
{
    using exec::simd::Level;
    const int d = cache.headDim();
    const int nr = cache.residualBlockSize();
    const int gq = static_cast<int>(q.dim(0));
    const int bits = cache.config().bits;
    const std::size_t tile =
        static_cast<std::size_t>(nr) * static_cast<std::size_t>(d);
    const exec::simd::PlanView kview = cache.keyLinearPlan().view();
    const exec::simd::PlanView vview = cache.valueLinearPlan().view();
    const auto& kb = cache.keyBlocks();
    const auto& vb = cache.valueBlocks();
    std::vector<float> kd_buf, vd_buf, s_buf, dq_buf;
    float* kd = exec::alignedScratch(kd_buf, tile);
    float* vd = exec::alignedScratch(vd_buf, tile);
    float* s = exec::alignedScratch(
        s_buf, static_cast<std::size_t>(gq) * static_cast<std::size_t>(nr));
    std::vector<PhaseTimes> out;
    for (Level level : {Level::Scalar, Level::Avx2, Level::Avx512}) {
        if (!exec::simd::levelSupported(level))
            continue;
        const exec::simd::KernelTable& kt = exec::simd::requireKernels(level);
        std::vector<float> qf(q.numel());
        kt.convert_rows(q.data(), qf.size(), qf.data());
        float* dq = exec::alignedScratch(
            dq_buf, exec::simd::dequantScratch(
                        tile / static_cast<std::size_t>(
                                   cache.config().group_size),
                        bits));
        const auto dequant = [&](std::size_t b) {
            kt.dequant_linear(kb[b].units.data(), kb[b].params.data(),
                              kb[b].params.numel(), kview, kd, dq);
            kt.dequant_linear(vb[b].units.data(), vb[b].params.data(),
                              vb[b].params.numel(), vview, vd, dq);
        };
        PhaseTimes pt{exec::simd::toString(level), 0, 0};
        pt.dequant_ms = medianMs(reps, [&] {
            for (std::size_t b = 0; b < kb.size(); b++)
                dequant(b);
        });
        exec::SoftmaxPartial st;
        pt.fold_ms = medianMs(reps, [&] {
            st.init(gq, d);
            for (std::size_t b = 0; b < kb.size(); b++)
                kt.fold_tile(qf.data(), gq, d, kd, nr, vd, nr, scale,
                             st.m.data(), st.l.data(), st.acc.data(), s,
                             /*round_p=*/true);
        });
        out.push_back(pt);
    }
    return out;
}

struct ContextResult
{
    backend::Binding binding; //!< cache structure the backend consumed
    int context;
    double legacy_ms;
    bool legacy_estimated;
    double fused_ms_t1;
    double fused_ms_t4;
    double fused_ms_t8;
    double paged_gather_ms; //!< reference backend over pages; -1 = skipped
    double paged_fused_ms;  //!< fused-paged backend, in place
    double scalar_twin_ms;  //!< scalar twin of a SIMD backend; -1 = N/A
    double prefill_ms;      //!< median HeadDecoder::prefill of the context
    std::vector<PhaseTimes> phases; //!< per supported level
};

/** The scalar twin of a SIMD sibling name; empty for non-siblings. */
std::string
scalarTwinOf(const std::string& name)
{
    if (name.ends_with("-avx2"))
        return name.substr(0, name.size() - 5);
    if (name.ends_with("-avx512"))
        return name.substr(0, name.size() - 7);
    return {};
}

ContextResult
runContext(const backend::AttentionBackend& be, int context, bool smoke,
           double legacy_32k_ms)
{
    const int d = 128;
    const int gq = 8;
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));

    backend::FixtureConfig fc;
    fc.context = context;
    fc.head_dim = d;
    fc.gq = gq;
    fc.seed = 2026 + static_cast<std::uint64_t>(context);
    const backend::DecodeFixture fx(be, fc);

    ContextResult r{};
    r.binding = fx.binding();
    r.context = context;

    // Legacy: the warp/register-emulated kernel (the pre-backend hot
    // path), over a packed cache holding the fixture's content. Measure
    // up to 32K; extrapolate linearly above (it is O(context)).
    if (context <= 32768) {
        core::BitDecodingConfig cfg; // KC-4, wn = 4
        core::HeadDecoder dec(d, cfg);
        dec.prefill(fx.keys(), fx.values());
        const int legacy_reps = context <= 4096 ? 3 : 1;
        r.legacy_ms = timeMs(legacy_reps, [&] {
            core::packingKernelAttention(fx.query(), dec.cache(), scale, {});
        });
        r.legacy_estimated = false;
    } else {
        r.legacy_ms = legacy_32k_ms * (static_cast<double>(context) / 32768.0);
        r.legacy_estimated = true;
    }

    const int reps = context <= 4096 ? 20 : (context <= 32768 ? 5 : 3);
    {
        std::optional<core::HeadDecoder> dec;
        r.prefill_ms = medianMs(reps, [&] {
            dec.emplace(d, core::BitDecodingConfig{});
            dec->prefill(fx.keys(), fx.values());
        });
        r.phases = packedPhases(dec->cache(), fx.query(), scale, reps);
    }

    backend::DecodeBatch b = fx.batch();
    b.scale = scale;
    r.fused_ms_t1 = timeMs(reps, [&] { be.decodeStep(b); });

    // SIMD siblings also time their scalar twin on the same batch (the
    // capability masks are copies, so the binding fits), recording the
    // vectorization win separately from the vs-legacy speedup.
    r.scalar_twin_ms = -1.0;
    const std::string twin_name = scalarTwinOf(be.name());
    if (!twin_name.empty()) {
        const backend::AttentionBackend& twin =
            backend::BackendRegistry::instance().resolve(twin_name);
        r.scalar_twin_ms = timeMs(reps, [&] { twin.decodeStep(b); });
    }

    {
        exec::ThreadPool pool4(4);
        b.pool = &pool4;
        r.fused_ms_t4 = timeMs(reps, [&] { be.decodeStep(b); });
    }
    {
        exec::ThreadPool pool8(8);
        b.pool = &pool8;
        r.fused_ms_t8 = timeMs(reps, [&] { be.decodeStep(b); });
    }

    // Paged section: the fused-paged backend in place vs the reference
    // backend gathering the sequence, both resolved through the registry.
    {
        auto& reg = backend::BackendRegistry::instance();
        const backend::AttentionBackend& paged = reg.resolve("fused-paged");
        // When the swept backend is fused-paged the main fixture already
        // holds the paged pool — don't build a second 128K one.
        std::optional<backend::DecodeFixture> alt;
        if (std::strcmp(be.name(), "fused-paged") != 0)
            alt.emplace(paged, fc);
        const backend::DecodeFixture& pfx = alt ? *alt : fx;
        backend::DecodeBatch pb = pfx.batch();
        pb.scale = scale;
        r.paged_gather_ms = -1.0; // not measured (smoke / too slow at 128K)
        if (!smoke && context <= 32768) {
            const backend::AttentionBackend& ref = reg.resolve("reference");
            r.paged_gather_ms = timeMs(1, [&] { ref.decodeStep(pb); });
        }
        r.paged_fused_ms = timeMs(reps, [&] { paged.decodeStep(pb); });
    }
    return r;
}

} // namespace
} // namespace bitdec

int
main(int argc, char** argv)
{
    using namespace bitdec;

    const serving::ServingOptions opts =
        serving::ServingOptions::parse(argc, argv);
    if (opts.maybeListBackends())
        return 0;
    const bool smoke = opts.smoke;
    const backend::AttentionBackend& be =
        opts.resolveBackend("fused-packed");

    bench::banner(std::string("CPU hot path: '") + be.name() +
                  "' backend vs legacy kernel" + (smoke ? " [smoke]" : ""));
    std::printf("hardware threads: %u, BITDEC_THREADS default pool: %d\n",
                std::thread::hardware_concurrency(),
                exec::ThreadPool::globalThreadCount());
    std::printf("cpu features: %s\nsimd level: %s\n",
                exec::simd::describeCpuFeatures().c_str(), be.simdLevel());

    std::vector<int> contexts =
        smoke ? std::vector<int>{4096}
              : std::vector<int>{4096, 32768, 131072};

    std::vector<ContextResult> results;
    double legacy_32k = 0;
    for (int ctx : contexts) {
        const ContextResult r = runContext(be, ctx, smoke, legacy_32k);
        if (ctx == 32768)
            legacy_32k = r.legacy_ms;
        results.push_back(r);
    }

    bench::head("context", {"legacy", "be-1t", "be-4t", "be-8t",
                            "speedup", "scale-8t"});
    for (const ContextResult& r : results) {
        bench::row(std::to_string(r.context / 1024) + "K" +
                       (r.legacy_estimated ? " (est.)" : ""),
                   {r.legacy_ms, r.fused_ms_t1, r.fused_ms_t4, r.fused_ms_t8,
                    r.legacy_ms / r.fused_ms_t1,
                    r.fused_ms_t1 / r.fused_ms_t8},
                   "%10.3f");
    }
    if (results[0].scalar_twin_ms >= 0) {
        bench::section("SIMD vs scalar twin (1 thread)");
        bench::head("context", {"scalar", "simd", "speedup"});
        for (const ContextResult& r : results)
            bench::row(std::to_string(r.context / 1024) + "K",
                       {r.scalar_twin_ms, r.fused_ms_t1,
                        r.scalar_twin_ms / r.fused_ms_t1},
                       "%10.3f");
    }
    bench::section("prefill: HeadDecoder::prefill (KC-4, median)");
    bench::head("context", {"prefill_ms"});
    for (const ContextResult& r : results)
        bench::row(std::to_string(r.context / 1024) + "K", {r.prefill_ms},
                   "%10.3f");
    bench::section("packed step phases: one head, 1 thread (KC-4, median)");
    bench::head("context / level", {"dequant", "fold"});
    for (const ContextResult& r : results)
        for (const PhaseTimes& p : r.phases)
            bench::row(std::to_string(r.context / 1024) + "K " + p.level,
                       {p.dequant_ms, p.fold_ms}, "%10.3f");
    bench::section("paged: fused-paged in place vs reference gather "
                   "(1 thread)");
    bench::head("context", {"gather", "fused"});
    for (const ContextResult& r : results) {
        if (r.paged_gather_ms < 0)
            std::printf("%-28s%10s%10.3f\n",
                        (std::to_string(r.context / 1024) + "K").c_str(),
                        "-", r.paged_fused_ms);
        else
            bench::row(std::to_string(r.context / 1024) + "K",
                       {r.paged_gather_ms, r.paged_fused_ms}, "%10.3f");
    }

    // Machine-readable trajectory record. Smoke runs write to a separate
    // file so a local CI-gate check never clobbers the tracked full-sweep
    // record.
    const char* json_path =
        smoke ? "BENCH_cpu_hotpath.smoke.json" : "BENCH_cpu_hotpath.json";
    FILE* f = std::fopen(json_path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path);
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"cpu_hotpath\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"backend\": \"%s\",\n", be.name());
    std::fprintf(f, "  \"cpu_features\": \"%s\",\n  \"simd_level\": \"%s\",\n",
                 exec::simd::describeCpuFeatures().c_str(), be.simdLevel());
    // Honest format labeling: FP16 bindings are not a 4-bit sweep; the
    // packed, quantized and MX(FP4) bindings are.
    const backend::Binding binding = results[0].binding;
    const bool fp16 = binding == backend::Binding::Fp16Contiguous ||
                      binding == backend::Binding::PagedFp16;
    std::fprintf(f, "  \"binding\": \"%s\",\n  \"bits\": %d,\n",
                 backend::toString(binding), fp16 ? 16 : 4);
    std::fprintf(f, "  \"head_dim\": 128,\n  \"gq\": 8,\n");
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); i++) {
        const ContextResult& r = results[i];
        char gather[32];
        if (r.paged_gather_ms < 0)
            std::snprintf(gather, sizeof(gather), "null"); // not measured
        else
            std::snprintf(gather, sizeof(gather), "%.4f", r.paged_gather_ms);
        char twin[64];
        if (r.scalar_twin_ms < 0)
            std::snprintf(twin, sizeof(twin),
                          "\"scalar_twin_ms\": null"); // not a SIMD sibling
        else
            std::snprintf(twin, sizeof(twin),
                          "\"scalar_twin_ms\": %.4f, "
                          "\"simd_speedup_vs_scalar\": %.2f",
                          r.scalar_twin_ms, r.scalar_twin_ms / r.fused_ms_t1);
        std::fprintf(
            f,
            "    {\"context\": %d, \"legacy_ms\": %.4f, "
            "\"legacy_estimated\": %s,\n"
            "     \"fused_ms\": {\"t1\": %.4f, \"t4\": %.4f, \"t8\": %.4f},\n"
            "     \"speedup_vs_legacy_1t\": %.2f, "
            "\"scaling_1t_to_8t\": %.2f,\n"
            "     %s,\n"
            "     \"paged_gather_ms\": %s, \"paged_fused_ms\": %.4f, "
            "\"prefill_ms\": %.4f,\n"
            "     \"phases\": {",
            r.context, r.legacy_ms, r.legacy_estimated ? "true" : "false",
            r.fused_ms_t1, r.fused_ms_t4, r.fused_ms_t8,
            r.legacy_ms / r.fused_ms_t1, r.fused_ms_t1 / r.fused_ms_t8,
            twin, gather, r.paged_fused_ms, r.prefill_ms);
        for (std::size_t p = 0; p < r.phases.size(); p++)
            std::fprintf(f,
                         "%s\"%s\": {\"dequant_ms\": %.4f, "
                         "\"fold_ms\": %.4f}",
                         p == 0 ? "" : ", ", r.phases[p].level,
                         r.phases[p].dequant_ms, r.phases[p].fold_ms);
        std::fprintf(f, "}}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);

    // Smoke mode is the CI perf gate: the selected backend regressing to
    // within 5x of the legacy kernel fails the job loudly. (Measured
    // margins for the fused hot paths are ~20-30x, so this trips on real
    // regressions, not runner noise.) CI loops this once per
    // --list-backends=fused name, so a backend registered but broken
    // fails the pipeline.
    if (smoke) {
        const double speedup = results[0].legacy_ms / results[0].fused_ms_t1;
        if (speedup < 5.0) {
            std::fprintf(stderr,
                         "PERF REGRESSION: backend '%s' speedup %.2fx < 5x "
                         "floor\n",
                         be.name(), speedup);
            return 2;
        }
        std::printf("perf gate [%s]: %.1fx >= 5x floor — OK\n", be.name(),
                    speedup);
    }
    return 0;
}
