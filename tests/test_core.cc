/**
 * @file
 * Tests for the BitDecoding core: query transformation, the Packing
 * Kernel (fused dequant + Tensor-Core attention), cooperative softmax
 * validity, the MX path, and the timing model's headline behaviours.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "attention/flash_decoding.h"
#include "attention/qserve_baseline.h"
#include "attention/reference.h"
#include "common/rng.h"
#include "core/bitdecoding.h"
#include "core/packing_kernel.h"
#include "core/query_transform.h"
#include "core/residual_kernel.h"
#include "exec/dequant_plan.h"
#include "exec/simd/dispatch.h"
#include "gpusim/arch.h"

namespace bitdec::core {
namespace {

void
randomize(Tensor<Half>& t, Rng& rng, float stddev = 1.0f)
{
    for (std::size_t i = 0; i < t.numel(); i++)
        t[i] = Half(rng.normal(0.f, stddev));
}

/** Builds a random [len x d] pair of K/V tensors. */
void
makeKv(Rng& rng, int len, int d, Tensor<Half>& k, Tensor<Half>& v)
{
    k.reset({static_cast<std::size_t>(len), static_cast<std::size_t>(d)});
    v.reset({static_cast<std::size_t>(len), static_cast<std::size_t>(d)});
    randomize(k, rng);
    randomize(v, rng);
}

// ------------------------------------------------------ query transform ----

TEST(QueryTransform, GathersGroupRows)
{
    Tensor<Half> q({8, 4}); // hq = 8
    for (std::size_t h = 0; h < 8; h++)
        for (std::size_t c = 0; c < 4; c++)
            q.at(h, c) = Half(static_cast<float>(h));
    const Tensor<Half> tile = queryGroupTile(q, 1, 2); // hkv = 2, gq = 4
    ASSERT_EQ(tile.dim(0), 4u);
    for (std::size_t g = 0; g < 4; g++)
        EXPECT_EQ(tile.at(g, 0).toFloat(), static_cast<float>(4 + g));
}

TEST(QueryTransform, ScatterInvertsGather)
{
    Rng rng(91);
    Tensor<Half> q({16, 8});
    randomize(q, rng);
    Tensor<float> o_full({16, 8});
    for (int kvh = 0; kvh < 4; kvh++) {
        const Tensor<Half> tile = queryGroupTile(q, kvh, 4);
        Tensor<float> o_tile({4, 8});
        for (std::size_t g = 0; g < 4; g++)
            for (std::size_t c = 0; c < 8; c++)
                o_tile.at(g, c) = tile.at(g, c).toFloat();
        scatterGroupOutput(o_tile, kvh, 4, o_full);
    }
    for (std::size_t h = 0; h < 16; h++)
        for (std::size_t c = 0; c < 8; c++)
            EXPECT_EQ(o_full.at(h, c), q.at(h, c).toFloat());
}

TEST(QueryTransform, PadFillsWithZeros)
{
    Tensor<Half> tile({3, 4});
    tile.fill(Half(2.0f));
    const Tensor<Half> padded = padQueryTile(tile, 16);
    EXPECT_EQ(padded.dim(0), 16u);
    EXPECT_EQ(padded.at(2, 3).toFloat(), 2.0f);
    EXPECT_EQ(padded.at(3, 0).toFloat(), 0.0f);
    EXPECT_EQ(padded.at(15, 3).toFloat(), 0.0f);
}

TEST(QueryTransform, MhaAndMqaShapes)
{
    Tensor<Half> q({4, 8});
    // MHA: gq = 1.
    EXPECT_EQ(queryGroupTile(q, 2, 4).dim(0), 1u);
    // MQA: hkv = 1, gq = hq.
    EXPECT_EQ(queryGroupTile(q, 0, 1).dim(0), 4u);
}

// ------------------------------------------------------- packing kernel ----

struct PkCase
{
    int bits;
    quant::Granularity gran;
    int extra_tokens; //!< residual tail beyond full blocks
    int gq;
};

class PackingKernelP : public ::testing::TestWithParam<PkCase>
{
};

TEST_P(PackingKernelP, MatchesReferenceWithinQuantBound)
{
    const auto [bits, gran, extra, gq] = GetParam();
    BitDecodingConfig cfg;
    cfg.quant.bits = bits;
    cfg.quant.key_granularity = gran;
    cfg.quant.group_size = 32;

    const int d = 64;
    HeadDecoder dec(d, cfg);
    const int nr = dec.cache().residualBlockSize();
    const int len = 2 * nr + extra;

    Rng rng(101);
    Tensor<Half> k, v;
    makeKv(rng, len, d, k, v);
    dec.prefill(k, v);
    ASSERT_EQ(dec.cache().length(), len);

    Tensor<Half> q({static_cast<std::size_t>(gq),
                    static_cast<std::size_t>(d)});
    randomize(q, rng);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));

    const PackingKernelResult res = dec.decodeStep(q, scale);
    EXPECT_TRUE(res.valid);

    // Reference over the *dequantized* cache isolates layout/kernel bugs
    // from inherent quantization error.
    Tensor<Half> kd, vd;
    dec.cache().dequantizeAll(kd, vd);
    const Tensor<float> want = attn::referenceAttention(q, kd, vd, scale);
    for (int g = 0; g < gq; g++) {
        for (int c = 0; c < d; c++) {
            EXPECT_NEAR(res.out.at(static_cast<std::size_t>(g),
                                   static_cast<std::size_t>(c)),
                        want.at(static_cast<std::size_t>(g),
                                static_cast<std::size_t>(c)),
                        2e-2f)
                << "g=" << g << " c=" << c;
        }
    }
    // And against the FP16 ground truth the gap is the quantization error.
    const Tensor<float> truth = attn::referenceAttention(q, k, v, scale);
    float err = 0;
    for (int g = 0; g < gq; g++)
        for (int c = 0; c < d; c++)
            err = std::max(err, std::fabs(res.out.at(
                                     static_cast<std::size_t>(g),
                                     static_cast<std::size_t>(c)) -
                                 truth.at(static_cast<std::size_t>(g),
                                          static_cast<std::size_t>(c))));
    EXPECT_LT(err, bits == 2 ? 1.0f : 0.4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackingKernelP,
    ::testing::Values(
        PkCase{4, quant::Granularity::ChannelWise, 0, 16},
        PkCase{4, quant::Granularity::ChannelWise, 37, 8},
        PkCase{4, quant::Granularity::TensorWise, 5, 16},
        PkCase{2, quant::Granularity::ChannelWise, 0, 16},
        PkCase{2, quant::Granularity::TensorWise, 64, 4},
        PkCase{4, quant::Granularity::ChannelWise, 1, 1}));

TEST(PackingKernel, ResidualOnlyCache)
{
    // Fewer tokens than one block: everything stays FP16.
    BitDecodingConfig cfg;
    const int d = 64;
    HeadDecoder dec(d, cfg);
    Rng rng(102);
    Tensor<Half> k, v;
    makeKv(rng, 40, d, k, v);
    dec.prefill(k, v);
    EXPECT_EQ(dec.cache().packedTokens(), 0);

    Tensor<Half> q({4, static_cast<std::size_t>(d)});
    randomize(q, rng);
    const auto res = dec.decodeStep(q, 0.125f);
    const auto want = attn::referenceAttention(q, k, v, 0.125f);
    for (std::size_t g = 0; g < 4; g++)
        for (std::size_t c = 0; c < static_cast<std::size_t>(d); c++)
            EXPECT_NEAR(res.out.at(g, c), want.at(g, c), 1e-3f);
}

TEST(PackingKernel, HopperSmemPathIdentical)
{
    // Routing dequantized B through shared memory (STSM + wgmma_SS) must
    // not change results — and must keep the layout valid.
    BitDecodingConfig cfg;
    const int d = 64;
    HeadDecoder dec(d, cfg);
    Rng rng(103);
    Tensor<Half> k, v;
    makeKv(rng, dec.cache().residualBlockSize(), d, k, v);
    dec.prefill(k, v);
    Tensor<Half> q({8, static_cast<std::size_t>(d)});
    randomize(q, rng);

    PackingKernelOptions base, hopper;
    hopper.hopper_smem_path = true;
    const auto r1 = packingKernelAttention(q, dec.cache(), 0.125f, base);
    const auto r2 = packingKernelAttention(q, dec.cache(), 0.125f, hopper);
    EXPECT_TRUE(r2.valid);
    EXPECT_LT(attn::maxAbsDiff(r1.out, r2.out), 1e-6f);
}

TEST(CoopSoftmax, DisabledWithMultipleWarpsIsInvalid)
{
    // Table III row 2: wn = 4 without cooperative softmax is fast but
    // wrong. The functional model must flag it and produce different
    // output than the cooperative path.
    BitDecodingConfig cfg; // wn = 4 default
    const int d = 64;
    HeadDecoder dec(d, cfg);
    Rng rng(104);
    Tensor<Half> k, v;
    makeKv(rng, dec.cache().residualBlockSize(), d, k, v);
    dec.prefill(k, v);
    Tensor<Half> q({8, static_cast<std::size_t>(d)});
    randomize(q, rng, 2.0f); // spread logits so warp maxima differ

    PackingKernelOptions coop, broken;
    broken.coop_softmax = false;
    const auto good = packingKernelAttention(q, dec.cache(), 0.5f, coop);
    const auto bad = packingKernelAttention(q, dec.cache(), 0.5f, broken);
    EXPECT_TRUE(good.valid);
    EXPECT_FALSE(bad.valid);
    EXPECT_GT(attn::maxAbsDiff(good.out, bad.out), 1e-3f);
}

TEST(CoopSoftmax, SingleWarpNeedsNoCooperation)
{
    // Table III row 1: wn = 1 stays correct without cooperation.
    BitDecodingConfig cfg;
    cfg.tiling.wn = 1;
    cfg.coop_softmax = false;
    const int d = 64;
    HeadDecoder dec(d, cfg);
    Rng rng(105);
    Tensor<Half> k, v;
    makeKv(rng, dec.cache().residualBlockSize(), d, k, v);
    dec.prefill(k, v);
    Tensor<Half> q({8, static_cast<std::size_t>(d)});
    randomize(q, rng);
    const auto res = dec.decodeStep(q, 0.125f);
    EXPECT_TRUE(res.valid);

    Tensor<Half> kd, vd;
    dec.cache().dequantizeAll(kd, vd);
    const auto want = attn::referenceAttention(q, kd, vd, 0.125f);
    for (std::size_t g = 0; g < 8; g++)
        for (std::size_t c = 0; c < static_cast<std::size_t>(d); c++)
            EXPECT_NEAR(res.out.at(g, c), want.at(g, c), 2e-2f);
}

/** Row @p t of a [len x d] tensor as a token vector. */
std::vector<Half>
rowOf(const Tensor<Half>& m, int t)
{
    const Half* r = m.data() + static_cast<std::size_t>(t) * m.dim(1);
    return std::vector<Half>(r, r + m.dim(1));
}

/** Rows [from, to) of a [len x d] tensor. */
Tensor<Half>
rowsOf(const Tensor<Half>& m, int from, int to)
{
    Tensor<Half> out({static_cast<std::size_t>(to - from), m.dim(1)});
    std::copy(m.data() + static_cast<std::size_t>(from) * m.dim(1),
              m.data() + static_cast<std::size_t>(to) * m.dim(1),
              out.data());
    return out;
}

/** Every supported level's dequant of block @p x of @p cache holds, bit
 *  for bit, what exec::dequantBlock makes of block @p y. */
void
expectDequantsLike(const kv::PackedHeadCache& cache, const kv::PackedBlock& x,
                   const kv::PackedBlock& y, bool keys,
                   const std::string& what)
{
    const int d = cache.headDim();
    const int nr = cache.residualBlockSize();
    const int bits = cache.config().bits;
    const std::size_t n = static_cast<std::size_t>(nr) * d;
    std::vector<float> want(n), got(n);
    std::vector<float> scratch(
        exec::simd::dequantScratch(x.params.numel(), bits));
    exec::dequantBlock(y.units, keys ? cache.keyRoutes() : cache.valueRoutes(),
                       y.params, bits, want.data());
    const exec::simd::PlanView view =
        (keys ? cache.keyLinearPlan() : cache.valueLinearPlan()).view();
    for (auto level : {exec::simd::Level::Scalar, exec::simd::Level::Avx2,
                       exec::simd::Level::Avx512}) {
        if (!exec::simd::levelSupported(level))
            continue;
        exec::simd::kernels(level)->dequant_linear(
            x.units.data(), x.params.data(), x.params.numel(), view,
            got.data(), scratch.data());
        for (int t = 0; t < nr; t++)
            for (int c = 0; c < d; c++) {
                const std::size_t tm = static_cast<std::size_t>(t) * d + c;
                // Key plans index a channel-major tile.
                const std::size_t at =
                    keys ? static_cast<std::size_t>(c) * nr + t : tm;
                ASSERT_EQ(0, std::memcmp(&got[at], &want[tm], sizeof(float)))
                    << what << " " << exec::simd::toString(level)
                    << (keys ? " K" : " V") << " t=" << t << " c=" << c;
            }
    }
}

/** Byte equality of two packed caches: every block's units and params,
 *  the same dequantized values at every level, and the live residual
 *  rows. */
void
expectSameCache(const kv::PackedHeadCache& a, const kv::PackedHeadCache& b,
                const std::string& what)
{
    ASSERT_EQ(a.packedTokens(), b.packedTokens()) << what;
    ASSERT_EQ(a.residualLength(), b.residualLength()) << what;
    const auto same = [](const auto& x, const auto& y, std::size_t n,
                         std::size_t elem) {
        return std::memcmp(x, y, n * elem) == 0;
    };
    for (const auto& [ba, bb] :
         {std::pair{&a.keyBlocks(), &b.keyBlocks()},
          std::pair{&a.valueBlocks(), &b.valueBlocks()}}) {
        ASSERT_EQ(ba->size(), bb->size()) << what;
        for (std::size_t i = 0; i < ba->size(); i++) {
            const kv::PackedBlock& x = (*ba)[i];
            const kv::PackedBlock& y = (*bb)[i];
            EXPECT_EQ(x.units, y.units) << what << " block " << i;
            ASSERT_EQ(x.params.numel(), y.params.numel()) << what;
            EXPECT_TRUE(same(x.params.data(), y.params.data(),
                             x.params.numel(), 4))
                << what << " block " << i;
            expectDequantsLike(a, x, y, ba == &a.keyBlocks(),
                               what + " block " + std::to_string(i));
        }
    }
    const std::size_t live =
        static_cast<std::size_t>(a.residualLength()) *
        static_cast<std::size_t>(a.headDim());
    EXPECT_TRUE(same(a.residualKeys().data(), b.residualKeys().data(), live,
                     2))
        << what;
    EXPECT_TRUE(same(a.residualValues().data(), b.residualValues().data(),
                     live, 2))
        << what;
}

TEST(HeadDecoder, StreamingAppendMatchesPrefill)
{
    // Prefill packs whole blocks straight from its input; the cache must
    // hold exactly the bytes of appending the same rows one at a time,
    // across block boundaries and after a partly filled residual.
    BitDecodingConfig cfg;
    const int d = 64;
    const int nr = HeadDecoder(d, cfg).cache().residualBlockSize();
    Rng rng(106);
    for (int pre : {0, 5}) {
        for (int len : {0, nr - 1, nr, nr + 1, 3 * nr + 5}) {
            HeadDecoder a(d, cfg), b(d, cfg);
            Tensor<Half> k, v;
            makeKv(rng, pre + len, d, k, v);
            for (int t = 0; t < pre; t++) {
                a.appendToken(rowOf(k, t), rowOf(v, t));
                b.appendToken(rowOf(k, t), rowOf(v, t));
            }
            a.prefill(rowsOf(k, pre, pre + len), rowsOf(v, pre, pre + len));
            for (int t = pre; t < pre + len; t++)
                b.appendToken(rowOf(k, t), rowOf(v, t));
            expectSameCache(a.cache(), b.cache(),
                            "pre=" + std::to_string(pre) +
                                " len=" + std::to_string(len));
            if (len == nr + 1) {
                Tensor<Half> q({4, static_cast<std::size_t>(d)});
                randomize(q, rng);
                const auto ra = a.decodeStep(q, 0.125f);
                const auto rb = b.decodeStep(q, 0.125f);
                EXPECT_LT(attn::maxAbsDiff(ra.out, rb.out), 1e-6f);
            }
        }
    }

    // Keys all zero but one smallest subnormal: that key group's range
    // underflows a half scale. Attention is uniform and every channel's
    // values are half 0 and half 0.5, so every output is about 0.25 —
    // not NaN.
    Tensor<Half> k({256, static_cast<std::size_t>(d)}),
        v({256, static_cast<std::size_t>(d)});
    k.at(7, 3) = Half::fromBits(1);
    for (std::size_t t = 0; t < 256; t++)
        for (std::size_t c = 0; c < static_cast<std::size_t>(d); c++)
            v.at(t, c) = Half((t + c) % 2 == 0 ? 0.f : 0.5f);
    HeadDecoder dec(d, cfg);
    dec.prefill(k, v);
    Tensor<Half> q({4, static_cast<std::size_t>(d)});
    randomize(q, rng);
    const Tensor<float> out = dec.fusedDecodeStep(q, 0.125f);
    for (std::size_t i = 0; i < out.numel(); i++)
        ASSERT_NEAR(out[i], 0.25f, 1e-3f) << i;
}

// ------------------------------------------------------------- MX path ----

TEST(MxPath, AttentionWithinFp4Bound)
{
    Rng rng(107);
    const int len = 128, d = 64;
    Tensor<Half> k, v;
    makeKv(rng, len, d, k, v);
    Tensor<Half> q({4, static_cast<std::size_t>(d)});
    randomize(q, rng);
    const float scale = 0.125f;
    const auto want = attn::referenceAttention(q, k, v, scale);
    for (quant::MxKind kind : {quant::MxKind::MXFP4, quant::MxKind::NVFP4}) {
        const auto got = mxAttention(q, k, v, kind, scale, true);
        EXPECT_LT(attn::maxAbsDiff(got, want), 0.6f);
        EXPECT_GT(attn::maxAbsDiff(got, want), 0.0f); // fp4 is lossy
    }
}

TEST(MxPath, PRequantizationAddsError)
{
    Rng rng(108);
    const int len = 64, d = 32;
    Tensor<Half> k, v;
    makeKv(rng, len, d, k, v);
    Tensor<Half> q({2, static_cast<std::size_t>(d)});
    randomize(q, rng);
    const auto want = attn::referenceAttention(q, k, v, 0.2f);
    const auto no_requant =
        mxAttention(q, k, v, quant::MxKind::NVFP4, 0.2f, false);
    const auto requant =
        mxAttention(q, k, v, quant::MxKind::NVFP4, 0.2f, true);
    EXPECT_GE(attn::maxAbsDiff(requant, want),
              attn::maxAbsDiff(no_requant, want) * 0.99f);
}

// --------------------------------------------------------- timing model ----

TEST(BitDecodingTiming, BeatsFp16AtLongContext)
{
    attn::DecodeShape s;
    s.batch = 1;
    s.num_q_heads = 32;
    s.num_kv_heads = 8;
    s.seq_len = 131072;
    const auto& a100 = sim::archA100();
    BitDecodingConfig cfg;
    const double fd = attn::flashDecodingTime(a100, s, 2).total_s;
    const double bd4 = bitDecodingTime(a100, s, cfg).total_s;
    cfg.quant.bits = 2;
    const double bd2 = bitDecodingTime(a100, s, cfg).total_s;
    EXPECT_GT(fd / bd4, 2.0); // ~4x bytes saved, some overhead
    EXPECT_LT(fd / bd4, 4.5);
    EXPECT_GT(bd4 / bd2, 1.2); // 2-bit is faster still
}

TEST(BitDecodingTiming, AblationLadderMonotone)
{
    // Fig. 16: each optimization must add speedup on every architecture.
    attn::DecodeShape s;
    s.batch = 8;
    s.num_q_heads = 32;
    s.num_kv_heads = 8;
    s.seq_len = 32768;
    BitDecodingConfig cfg;
    for (const auto* arch : {&sim::archA100(), &sim::archH100(),
                             &sim::archRTX5090()}) {
        cfg.version = arch->has_wgmma ? 3 : 2;
        cfg.use_mx = arch->has_mxfp4_mma;
        BitDecodingAblation none{false, false, false};
        BitDecodingAblation layout{true, false, false};
        BitDecodingAblation warps{true, true, false};
        BitDecodingAblation full{true, true, true};
        const double t0 = bitDecodingTime(*arch, s, cfg, none).total_s;
        const double t1 = bitDecodingTime(*arch, s, cfg, layout).total_s;
        const double t2 = bitDecodingTime(*arch, s, cfg, warps).total_s;
        const double t3 = bitDecodingTime(*arch, s, cfg, full).total_s;
        EXPECT_GT(t0, t1) << arch->name;
        EXPECT_GT(t1, t2) << arch->name;
        EXPECT_GT(t2, t3) << arch->name;
    }
}

TEST(BitDecodingTiming, QueryTransformKeepsGqaFast)
{
    // BitDecoding reads KV once per kv head; the advantage over the
    // CUDA-core GEMV systems grows with the group size.
    attn::DecodeShape gqa;
    gqa.batch = 4;
    gqa.num_q_heads = 32;
    gqa.num_kv_heads = 8;
    gqa.seq_len = 32768;
    const auto& a100 = sim::archA100();
    BitDecodingConfig cfg;
    const double bd = bitDecodingTime(a100, gqa, cfg).total_s;
    const double qs = attn::cudaCoreFusedTime(
                          a100, gqa, attn::CudaCoreSystem::QServe, 4)
                          .total_s;
    EXPECT_GT(qs / bd, 2.0);
}

TEST(BitDecodingTiming, MxPathFastestOnBlackwell)
{
    attn::DecodeShape s;
    s.batch = 32;
    s.num_q_heads = 32;
    s.num_kv_heads = 8;
    s.seq_len = 8192;
    const auto& b = sim::archRTX5090();
    BitDecodingConfig int4;
    BitDecodingConfig mx;
    mx.use_mx = true;
    const double t_int4 = bitDecodingTime(b, s, int4).total_s;
    const double t_mx = bitDecodingTime(b, s, mx).total_s;
    EXPECT_LT(t_mx, t_int4 * 1.05);
}

TEST(BitDecodingTiming, BreakdownSane)
{
    attn::DecodeShape s;
    s.batch = 8;
    s.num_q_heads = 32;
    s.num_kv_heads = 8;
    s.seq_len = 32768;
    BitDecodingConfig cfg;
    const KernelBreakdown b = bitDecodingBreakdown(sim::archA100(), s, cfg);
    EXPECT_GT(b.total_s, 0);
    EXPECT_GT(b.dequant_s, 0);
    EXPECT_LT(b.dequant_s / b.total_s, 0.5); // Fig. 15a: < 50 %
    EXPECT_GT(b.tc_utilization, 0);
    EXPECT_LE(b.fma_share + b.alu_share, 1.0 + 1e-9);
}

TEST(BitDecodingTiming, ResidualKernelOverheadSmall)
{
    // Fig. 14: the extra residual launch costs little and shrinks
    // relative to the total as the context grows.
    attn::DecodeShape s;
    s.batch = 1;
    s.num_q_heads = 32;
    s.num_kv_heads = 32;
    s.head_dim = 128;
    BitDecodingConfig cfg;
    double prev_ratio = 1e9;
    for (int len : {4096, 16384, 65536, 131072}) {
        s.seq_len = len;
        const double with_res = bitDecodingTime(sim::archA100(), s, cfg).total_s;
        const double res_part =
            residualKernelTime(sim::archA100(), s, cfg.quant, 64, false)
                .total_s;
        const double ratio = res_part / with_res;
        EXPECT_LT(ratio, prev_ratio * 1.001);
        prev_ratio = ratio;
    }
    EXPECT_LT(prev_ratio, 0.08); // negligible at 128K
}

TEST(BitDecodingConfig, Labels)
{
    BitDecodingConfig c;
    EXPECT_EQ(c.label(), "BitDecoding-KC-4");
    c.quant.bits = 2;
    c.version = 3;
    EXPECT_EQ(c.label(), "BitDecoding-KC-2 (v3)");
    c.use_mx = true;
    EXPECT_EQ(c.label(), "BitDecoding-mxfp4");
}

} // namespace
} // namespace bitdec::core
