#include "exec/fused_attention.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace bitdec::exec {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

} // namespace

float*
alignedScratch(std::vector<float>& buf, std::size_t n)
{
    constexpr std::size_t kLineFloats = 64 / sizeof(float);
    if (buf.size() < n + kLineFloats)
        buf.resize(n + kLineFloats);
    const std::size_t mis =
        (reinterpret_cast<std::uintptr_t>(buf.data()) / sizeof(float)) %
        kLineFloats;
    return buf.data() + (mis == 0 ? 0 : kLineFloats - mis);
}

void
foldTile(const float* qf, int gq, int d, const float* kf, const float* vf,
         int tokens, float scale, SoftmaxPartial& st, bool round_p)
{
    thread_local std::vector<float> s;
    if (s.size() < static_cast<std::size_t>(tokens))
        s.resize(static_cast<std::size_t>(tokens));
    const std::size_t dd = static_cast<std::size_t>(d);
    for (int r = 0; r < gq; r++) {
        const std::size_t rr = static_cast<std::size_t>(r);
        const float* qrow = qf + rr * dd;
        float bm = st.m[rr];
        for (int t = 0; t < tokens; t++) {
            const float* krow = kf + static_cast<std::size_t>(t) * dd;
            float dot = 0.f;
            for (int c = 0; c < d; c++)
                dot += qrow[c] * krow[c];
            const float logit = dot * scale;
            s[static_cast<std::size_t>(t)] = logit;
            bm = std::max(bm, logit);
        }
        const float rescale = st.m[rr] == kNegInf ? 0.f
                                                  : std::exp(st.m[rr] - bm);
        float* acc = st.acc.data() + rr * dd;
        st.l[rr] *= rescale;
        for (int c = 0; c < d; c++)
            acc[c] *= rescale;
        for (int t = 0; t < tokens; t++) {
            const float pexp = std::exp(s[static_cast<std::size_t>(t)] - bm);
            const float p = round_p ? roundToHalf(pexp) : pexp;
            st.l[rr] += p;
            const float* vrow = vf + static_cast<std::size_t>(t) * dd;
            for (int c = 0; c < d; c++)
                acc[c] += p * vrow[c];
        }
        st.m[rr] = bm;
    }
}

void
SoftmaxPartial::init(int gq, int d)
{
    m.assign(static_cast<std::size_t>(gq), kNegInf);
    l.assign(static_cast<std::size_t>(gq), 0.f);
    acc.assign(static_cast<std::size_t>(gq) * static_cast<std::size_t>(d),
               0.f);
}

SoftmaxPartial
mergePartials(const std::vector<SoftmaxPartial>& parts, int gq, int d)
{
    const std::size_t dd = static_cast<std::size_t>(d);
    SoftmaxPartial run;
    run.init(gq, d);
    for (const SoftmaxPartial& st : parts) {
        for (int r = 0; r < gq; r++) {
            const std::size_t rr = static_cast<std::size_t>(r);
            const float nm = std::max(run.m[rr], st.m[rr]);
            if (nm == kNegInf)
                continue;
            const float ra =
                run.m[rr] == kNegInf ? 0.f : std::exp(run.m[rr] - nm);
            const float rb =
                st.m[rr] == kNegInf ? 0.f : std::exp(st.m[rr] - nm);
            run.l[rr] = run.l[rr] * ra + st.l[rr] * rb;
            float* o = run.acc.data() + rr * dd;
            const float* a = st.acc.data() + rr * dd;
            for (int c = 0; c < d; c++)
                o[c] = o[c] * ra + a[c] * rb;
            run.m[rr] = nm;
        }
    }
    return run;
}

Tensor<float>
finalizePartial(const SoftmaxPartial& st, int gq, int d)
{
    const std::size_t dd = static_cast<std::size_t>(d);
    Tensor<float> out({static_cast<std::size_t>(gq), dd});
    for (int r = 0; r < gq; r++) {
        const std::size_t rr = static_cast<std::size_t>(r);
        const float inv = st.l[rr] > 0.f ? 1.0f / st.l[rr] : 0.f;
        for (int c = 0; c < d; c++)
            out.at(rr, static_cast<std::size_t>(c)) =
                st.acc[rr * dd + static_cast<std::size_t>(c)] * inv;
    }
    return out;
}

void
foldHalfTile(const simd::KernelTable& kt, const float* qf, int gq, int d,
             const Half* k, const Half* v, int tokens, float scale,
             SoftmaxPartial& st)
{
    thread_local std::vector<float> kT_buf, vf_buf, s_buf;
    const std::size_t n =
        static_cast<std::size_t>(tokens) * static_cast<std::size_t>(d);
    float* kT = alignedScratch(kT_buf, n);
    float* vf = alignedScratch(vf_buf, n);
    float* s = alignedScratch(s_buf, static_cast<std::size_t>(gq) *
                                         static_cast<std::size_t>(tokens));
    // Both conversions are bit-exact Half widenings.
    kt.convert_transpose(k, tokens, d, kT, tokens);
    kt.convert_rows(v, n, vf);
    kt.fold_tile(qf, gq, d, kT, tokens, vf, tokens, scale, st.m.data(),
                 st.l.data(), st.acc.data(), s, /*round_p=*/false);
}

Tensor<float>
fusedPagedAttention(const Tensor<Half>& q, const kv::PagedHeadCache& cache,
                    int seq, float scale, ThreadPool* pool, simd::Level level)
{
    const simd::KernelTable& kt = simd::requireKernels(level);
    const int d = cache.headDim();
    const int gq = static_cast<int>(q.dim(0));
    BITDEC_ASSERT(static_cast<int>(q.dim(1)) == d, "query width mismatch");
    const int len = cache.length(seq);
    const int ps = cache.pageSize();
    const std::vector<int>& pages = cache.pageTable(seq);
    const int n_chunks = cache.pagesFor(len); // one chunk per page

    std::vector<float> qf(static_cast<std::size_t>(gq) *
                          static_cast<std::size_t>(d));
    kt.convert_rows(q.data(), qf.size(), qf.data());

    std::vector<SoftmaxPartial> parts(static_cast<std::size_t>(n_chunks));
    parallelFor(pool, static_cast<std::size_t>(n_chunks), [&](std::size_t ci) {
        SoftmaxPartial& st = parts[ci];
        st.init(gq, d);
        const int page = pages[ci];
        const int tokens =
            std::min(ps, len - static_cast<int>(ci) * ps); // last page partial
        // The live rows of the page convert in place in the pool.
        foldHalfTile(kt, qf.data(), gq, d, cache.pageKeyData(page),
                     cache.pageValueData(page), tokens, scale, st);
    });

    return finalizePartial(mergePartials(parts, gq, d), gq, d);
}

Tensor<float>
fusedFp16Attention(const Tensor<Half>& q, const kv::Fp16HeadCache& cache,
                   float scale, ThreadPool* pool, simd::Level level)
{
    const simd::KernelTable& kt = simd::requireKernels(level);
    const int d = cache.headDim();
    const int gq = static_cast<int>(q.dim(0));
    BITDEC_ASSERT(static_cast<int>(q.dim(1)) == d, "query width mismatch");
    const int len = cache.length();
    const int n_chunks = (len + kChunkTokens - 1) / kChunkTokens;
    const std::size_t dd = static_cast<std::size_t>(d);

    std::vector<float> qf(static_cast<std::size_t>(gq) * dd);
    kt.convert_rows(q.data(), qf.size(), qf.data());

    std::vector<SoftmaxPartial> parts(static_cast<std::size_t>(n_chunks));
    parallelFor(pool, static_cast<std::size_t>(n_chunks), [&](std::size_t ci) {
        SoftmaxPartial& st = parts[ci];
        st.init(gq, d);
        const int t0 = static_cast<int>(ci) * kChunkTokens;
        const std::size_t off = static_cast<std::size_t>(t0) * dd;
        foldHalfTile(kt, qf.data(), gq, d, cache.keys().data() + off,
                     cache.values().data() + off,
                     std::min(kChunkTokens, len - t0), scale, st);
    });

    return finalizePartial(mergePartials(parts, gq, d), gq, d);
}

} // namespace bitdec::exec
