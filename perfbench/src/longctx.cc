/**
 * @file
 * The longctx workload: the paper's own operation, in-process. One
 * LLaMA-3.1-8B attention layer (8 KV heads, gq = 4, d = 128, KC-4)
 * serves back-to-back single-sequence requests: each builds eight
 * HeadDecoders, prefills a 32K-token context into each
 * (HeadDecoder::prefill), then decodes kOutputs tokens; a decode step
 * appends one token per head (appendToken) and runs one 8-item
 * decodeStep on the host's highest fused-packed* sibling over an
 * exec::ThreadPool of nproc threads.
 *
 * Every request sees the same content, so every request's outputs are
 * compared bitwise with an untimed check request, which also proves the
 * pool invariance (nproc pool == no pool) and the SIMD sibling against
 * the scalar fused-packed backend on the first step.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "backend/registry.h"
#include "bench.h"
#include "core/bitdecoding.h"
#include "exec/thread_pool.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace bitdec;

constexpr int kHeads = 8;
constexpr int kGq = 4;
constexpr int kDim = 128;
//! 32K context. The prompt stops short of a residual-block boundary so
//! every request's decode steps include one block-pack append.
constexpr int kPrompt = 32768 - 8;
constexpr int kOutputs = 16;

/** The content every request sees, drawn from the seed. */
struct Inputs
{
    std::vector<Tensor<Half>> k, v;             //!< per head [kPrompt x d]
    std::vector<std::vector<Half>> add_k, add_v; //!< per (step, head) row
    std::vector<Tensor<Half>> q;                 //!< per (step, head) [gq x d]
};

/** Uniform halfs in [-2, 2) from a splitmix64 stream (fast enough to
 *  draw 67M of them per set-up). */
class HalfStream
{
  public:
    explicit HalfStream(std::uint64_t seed) : s_(seed) {}
    Half next()
    {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        z ^= z >> 31;
        return Half(static_cast<float>(z >> 40) / 4194304.0f - 2.0f);
    }

  private:
    std::uint64_t s_;
};

Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    HalfStream hs(seed);
    auto fill = [&](Tensor<Half>& t) {
        for (std::size_t i = 0; i < t.numel(); i++)
            t[i] = hs.next();
    };
    for (int h = 0; h < kHeads; h++) {
        in.k.emplace_back(std::initializer_list<std::size_t>{kPrompt, kDim});
        in.v.emplace_back(std::initializer_list<std::size_t>{kPrompt, kDim});
        fill(in.k.back());
        fill(in.v.back());
    }
    for (int i = 0; i < kOutputs * kHeads; i++) {
        std::vector<Half> rk(kDim), rv(kDim);
        for (int d = 0; d < kDim; d++) {
            rk[static_cast<std::size_t>(d)] = hs.next();
            rv[static_cast<std::size_t>(d)] = hs.next();
        }
        in.add_k.push_back(std::move(rk));
        in.add_v.push_back(std::move(rv));
        in.q.emplace_back(std::initializer_list<std::size_t>{kGq, kDim});
        fill(in.q.back());
    }
    return in;
}

/** The eight heads of one request. */
using Heads = std::vector<std::unique_ptr<core::HeadDecoder>>;

/** Builds and prefills the eight heads; @p per_head_ms gets each
 *  head's construct+prefill time when non-null. */
Heads
prefill(const Inputs& in, std::vector<double>* per_head_ms)
{
    Heads heads;
    for (int h = 0; h < kHeads; h++) {
        const double t0 = nowMs();
        heads.push_back(std::make_unique<core::HeadDecoder>(
            kDim, core::BitDecodingConfig{}));
        heads.back()->prefill(in.k[static_cast<std::size_t>(h)],
                              in.v[static_cast<std::size_t>(h)]);
        if (per_head_ms != nullptr)
            per_head_ms->push_back(nowMs() - t0);
    }
    return heads;
}

/** Appends step @p s's token to every head; per-append times go to
 *  @p append_ms when non-null. */
void
appendStep(const Inputs& in, Heads& heads, int s,
           std::vector<double>* append_ms)
{
    for (int h = 0; h < kHeads; h++) {
        const std::size_t i = static_cast<std::size_t>(s * kHeads + h);
        const double t0 = nowMs();
        heads[static_cast<std::size_t>(h)]->appendToken(in.add_k[i],
                                                        in.add_v[i]);
        if (append_ms != nullptr)
            append_ms->push_back(nowMs() - t0);
    }
}

backend::DecodeBatch
stepBatch(const Inputs& in, const Heads& heads, int s, exec::ThreadPool* pool)
{
    backend::DecodeBatch b;
    b.scale = 1.0f / std::sqrt(static_cast<float>(kDim));
    b.pool = pool;
    for (int h = 0; h < kHeads; h++)
        b.items.push_back(backend::packedItem(
            in.q[static_cast<std::size_t>(s * kHeads + h)],
            heads[static_cast<std::size_t>(h)]->cache()));
    return b;
}

bool
sameBits(const std::vector<Tensor<float>>& a,
         const std::vector<Tensor<float>>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); i++)
        if (a[i].numel() != b[i].numel() ||
            std::memcmp(a[i].data(), b[i].data(),
                        a[i].numel() * sizeof(float)) != 0)
            return false;
    return true;
}

} // namespace

const backend::AttentionBackend&
packedBackend()
{
    const auto& reg = backend::BackendRegistry::instance();
    for (const char* name :
         {"fused-packed-avx512", "fused-packed-avx2", "fused-packed"}) {
        const backend::AttentionBackend* be = reg.find(name);
        if (be != nullptr && be->available())
            return *be;
    }
    return reg.resolve("fused-packed");
}

namespace {

/** What one request measured. */
struct RequestTimes
{
    double prefill_ms = 0;
    double ttft_ms = 0;
    double latency_ms = 0;
    std::vector<double> step_ms;
    bool same_as_check = true;
};

/** Per-request instrumentation of the traced pass. */
struct Tracing
{
    const TracedBackend* backend = nullptr;
    SpanLog log;
    std::vector<double> prefill_head_ms;
    std::vector<double> append_ms;
};

/**
 * One timed request. @p check holds the check request's outputs of
 * every step; @p tr instruments it when non-null.
 */
RequestTimes
runRequest(const Inputs& in, const backend::AttentionBackend& be,
           exec::ThreadPool& pool,
           const std::vector<std::vector<Tensor<float>>>& check, int id,
           Tracing* tr)
{
    RequestTimes rt;
    const double t0 = nowMs();
    const std::uint64_t root = tr != nullptr ? nextSpanId() : 0;
    Heads heads = prefill(in, tr != nullptr ? &tr->prefill_head_ms : nullptr);
    rt.prefill_ms = nowMs() - t0;
    if (tr != nullptr)
        tr->log.add("core.prefill", t0, t0 + rt.prefill_ms, root, id);
    for (int s = 0; s < kOutputs; s++) {
        const double ts = nowMs();
        const std::uint64_t step = tr != nullptr ? nextSpanId() : 0;
        if (tr != nullptr)
            tr->backend->parent = step;
        appendStep(in, heads, s, tr != nullptr ? &tr->append_ms : nullptr);
        const std::vector<Tensor<float>> out =
            be.decodeStep(stepBatch(in, heads, s, &pool));
        const double te = nowMs();
        rt.step_ms.push_back(te - ts);
        if (s == 0)
            rt.ttft_ms = te - t0;
        if (!sameBits(out, check[static_cast<std::size_t>(s)]))
            rt.same_as_check = false;
        if (tr != nullptr)
            tr->log.add("bench.step", ts, te, root, id, step);
    }
    rt.latency_ms = nowMs() - t0;
    if (tr != nullptr)
        tr->log.add("bench.request", t0, t0 + rt.latency_ms, 0, id, root);
    return rt;
}

/**
 * The untimed check request: all steps' outputs (the reference every
 * timed request must reproduce bit for bit), plus the first step with
 * no pool and on the scalar backend, which must match too.
 */
std::vector<std::vector<Tensor<float>>>
checkRequest(const Inputs& in, const backend::AttentionBackend& be,
             exec::ThreadPool& pool, Report& rep)
{
    const backend::AttentionBackend& scalar =
        backend::BackendRegistry::instance().resolve("fused-packed");
    std::vector<std::vector<Tensor<float>>> outs;
    Heads heads = prefill(in, nullptr);
    for (int s = 0; s < kOutputs; s++) {
        appendStep(in, heads, s, nullptr);
        outs.push_back(be.decodeStep(stepBatch(in, heads, s, &pool)));
        if (s != 0)
            continue;
        if (!sameBits(outs[0], be.decodeStep(stepBatch(in, heads, 0,
                                                       nullptr))))
            rep.fail(std::string(be.name()) +
                     ": nproc-pool outputs differ from no-pool outputs");
        if (!sameBits(outs[0],
                      scalar.decodeStep(stepBatch(in, heads, 0, &pool))))
            rep.fail(std::string(be.name()) +
                     ": first step differs from scalar fused-packed");
    }
    return outs;
}

/** Median of @p reps timings of @p fn, in ms. */
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
    return median(t);
}

} // namespace

Report
runLongctx(const Options& opts)
{
    Report rep;
    const int nproc = hostThreads();
    const backend::AttentionBackend& be = packedBackend();
    rep.facts.push_back({"longctx_backend", be.name()});
    rep.facts.push_back({"longctx_simd_level", be.simdLevel()});
    rep.facts.push_back({"longctx_pool_threads", std::to_string(nproc)});

    // Set-up: draw the inputs and start the pool, three times.
    std::vector<double> setup_s;
    Inputs in;
    std::unique_ptr<exec::ThreadPool> pool;
    for (int i = 0; i < (opts.trace ? 1 : 3); i++) {
        const double t0 = nowMs();
        pool.reset();
        in = makeInputs(opts.seed);
        pool = std::make_unique<exec::ThreadPool>(nproc);
        setup_s.push_back((nowMs() - t0) / 1000.0);
    }

    const auto check = checkRequest(in, be, *pool, rep);
    if (!rep.correct())
        return rep;

    // One request, checked against the check request's outputs.
    int next_id = 1;
    auto serveOne = [&](const backend::AttentionBackend& b, Tracing* tr) {
        RequestTimes rt = runRequest(in, b, *pool, check, next_id, tr);
        rep.attempted++;
        if (!rt.same_as_check) {
            rep.failed++;
            rep.fail("request " + std::to_string(next_id) +
                     " outputs differ from the check request");
        }
        next_id++;
        return rt;
    };

    if (!opts.trace) {
        // Back-to-back requests until the clock runs out, and at least
        // three, so the per-request medians have a middle sample.
        std::vector<RequestTimes> reqs;
        const double t0 = nowMs();
        while (reqs.size() < 3 || nowMs() - t0 < opts.seconds * 1000.0)
            reqs.push_back(serveOne(be, nullptr));
        std::vector<double> prefill_s, ttft, latency, steps;
        for (const RequestTimes& r : reqs) {
            prefill_s.push_back(r.prefill_ms / 1000.0);
            ttft.push_back(r.ttft_ms);
            latency.push_back(r.latency_ms);
            steps.insert(steps.end(), r.step_ms.begin(), r.step_ms.end());
        }
        // Decode throughput of the one sequence: tokens per second of
        // decode steps (prefill shows in ttft_p50_ms).
        double decode_ms = 0;
        for (double t : steps)
            decode_ms += t;
        rep.add("setup_s", median(setup_s), "s");
        rep.add("tokens_per_s",
                static_cast<double>(steps.size()) / (decode_ms / 1000.0),
                "tokens/s");
        const Pct t = tailPct(ttft, 50);
        rep.add("ttft_p50_ms", t.value, "ms", t.n, t.pct);
        const Pct s = tailPct(steps, 50);
        rep.add("tpot_p50_ms", s.value, "ms", s.n, s.pct);
        const Pct l = tailPct(latency, 50);
        rep.add("latency_p50_ms", l.value, "ms", l.n, l.pct);
        rep.add("peak_rss_mb", peakRssMb(0), "MB");

        const Pct p = tailPct(prefill_s, 50);
        rep.note("prefill_s", p.value, "s", p.n, p.pct);
        const Pct d90 = tailPct(steps, 90);
        rep.note("decode_step_p50_ms", s.value, "ms", s.n, s.pct);
        rep.note("decode_step_p90_ms", d90.value, "ms", d90.n, d90.pct);
        rep.note("requests", static_cast<double>(reqs.size()), "count");
        rep.note("context_tokens", kPrompt, "tokens");
        rep.note("outputs_per_request", kOutputs, "tokens");
        return rep;
    }

    // Traced: untraced and traced requests alternate, in equal numbers,
    // so drift in the host's speed weighs on both sides alike; the ratio
    // of their summed wall times is the tracing overhead.
    Tracing tr;
    const TracedBackend& traced = TracedBackend::install(be.name());
    traced.reset();
    tr.backend = &traced;
    std::vector<RequestTimes> reqs;
    double base_ms = 0, traced_ms = 0;
    const double t0 = nowMs();
    while (reqs.empty() || nowMs() - t0 < 0.8 * opts.seconds * 1000.0) {
        base_ms += serveOne(be, nullptr).latency_ms;
        reqs.push_back(serveOne(traced, &tr));
        traced_ms += reqs.back().latency_ms;
    }

    std::vector<double> steps;
    for (const RequestTimes& r : reqs)
        steps.insert(steps.end(), r.step_ms.begin(), r.step_ms.end());
    double step_total = 0, decode_total = 0;
    for (double t : steps)
        step_total += t;
    for (double t : traced.call_ms)
        decode_total += t;

    // backend
    std::vector<double> per_item_us;
    long items = 0;
    for (std::size_t i = 0; i < traced.call_ms.size(); i++) {
        items += traced.call_items[i];
        per_item_us.push_back(1000.0 * traced.call_ms[i] /
                              traced.call_items[i]);
    }
    rep.add("backend.decode_calls",
            static_cast<double>(traced.call_ms.size()), "count");
    rep.add("backend.items_per_call",
            static_cast<double>(items) /
                static_cast<double>(traced.call_ms.size()),
            "items");
    const Pct item = tailPct(per_item_us, 50);
    rep.add("backend.decode_us_per_item_p50", item.value, "us", item.n,
            item.pct);
    rep.add("backend.decode_share_of_tick", decode_total / step_total,
            "ratio");

    // core / quant
    const double elems =
        static_cast<double>(kPrompt) * kDim * 2.0; // K and V per head
    std::vector<double> ns_per_elem;
    for (double ms : tr.prefill_head_ms)
        ns_per_elem.push_back(ms * 1e6 / elems);
    std::vector<double> append_us;
    for (double ms : tr.append_ms)
        append_us.push_back(1000.0 * ms);
    const Pct pe = tailPct(ns_per_elem, 50);
    rep.add("core.prefill_ns_per_elem", pe.value, "ns", pe.n, pe.pct);
    const Pct ap = tailPct(append_us, 50);
    rep.add("core.append_us_p50", ap.value, "us", ap.n, ap.pct);
    rep.add("core.append_us_max",
            *std::max_element(append_us.begin(), append_us.end()), "us",
            append_us.size());

    // exec: the same batch over a fresh 32K context, without and with
    // the pool, and a one-item batch (the pool then fans out over KV
    // chunks instead of items).
    Heads heads = prefill(in, nullptr);
    appendStep(in, heads, 0, nullptr);
    const backend::DecodeBatch solo = stepBatch(in, heads, 0, nullptr);
    const backend::DecodeBatch pooled = stepBatch(in, heads, 0, pool.get());
    backend::DecodeBatch one_solo = solo, one_pooled = pooled;
    one_solo.items.resize(1);
    one_pooled.items.resize(1);
    const int reps = 3;
    const double ms_1t = medianMs(reps, [&] { be.decodeStep(solo); });
    const double ms_nt = medianMs(reps, [&] { be.decodeStep(pooled); });
    const double one_1t = medianMs(reps, [&] { be.decodeStep(one_solo); });
    const double one_nt = medianMs(reps, [&] { be.decodeStep(one_pooled); });
    double bytes = 0;
    for (const auto& h : heads)
        bytes += computedStepBytes(h->cache());
    rep.add("exec.step_ms_1t", ms_1t, "ms", reps);
    rep.add("exec.step_ms_nt", ms_nt, "ms", reps);
    rep.add("exec.thread_scaling", ms_1t / ms_nt, "ratio");
    rep.add("exec.single_head_scaling", one_1t / one_nt, "ratio");
    rep.add("exec.computed_bytes_per_step", bytes, "bytes");
    rep.add("exec.computed_gbps", bytes / (ms_nt * 1e6), "GB/s");
    rep.facts.push_back({"exec.computed_bytes",
                         "computed from packed block, parameter and live "
                         "residual sizes, not measured"});

    rep.add("bench.trace_overhead_ratio", traced_ms / base_ms, "ratio");

    if (!opts.out_dir.empty()) {
        const std::string path = opts.out_dir + "/spans-longctx.jsonl";
        if (writeSpans(path, {&tr.log, &traced.log}))
            rep.facts.push_back({"spans", path});
        else
            rep.fail("cannot write " + path);
    }
    return rep;
}

} // namespace perfbench
