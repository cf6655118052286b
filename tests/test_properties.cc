/**
 * @file
 * Cross-cutting property tests: invariants that must hold over swept
 * configuration spaces (warp tilings, bit widths, architectures, shapes)
 * rather than at single points.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "attention/flash_decoding.h"
#include "attention/workloads.h"
#include "backend/harness.h"
#include "backend/registry.h"
#include "common/rng.h"
#include "core/bitdecoding.h"
#include "core/residual_kernel.h"
#include "exec/dequant_plan.h"
#include "exec/fused_attention.h"
#include "exec/simd/dispatch.h"
#include "exec/simd/kernels_generic.h"
#include "gpusim/arch.h"
#include "kvcache/kv_cache.h"
#include "layout/induced_layout.h"
#include "model/decode_sim.h"
#include "model/model_config.h"
#include "quant/fast_dequant.h"

namespace bitdec {
namespace {

// ---------------------------------------------- layout induction sweeps ----

using exec::simd::Level;

/** Supported kernel tables of this host (scalar always), with their
 *  level names. */
std::vector<std::pair<const exec::simd::KernelTable*, const char*>>
supportedKernelTables()
{
    std::vector<std::pair<const exec::simd::KernelTable*, const char*>> out;
    for (Level l : {Level::Scalar, Level::Avx2, Level::Avx512})
        if (exec::simd::levelSupported(l))
            out.emplace_back(exec::simd::kernels(l), exec::simd::toString(l));
    return out;
}

/** Float bit patterns match (the definition of "bit-exact"). */
bool
sameBits(float a, float b)
{
    std::uint32_t ba, bb;
    std::memcpy(&ba, &a, 4);
    std::memcpy(&bb, &b, 4);
    return ba == bb;
}

/** Code @p i (plan destination order) of a packed block. */
unsigned
codeAt(const kv::PackedBlock& b, const exec::simd::LinearDequantPlan& plan,
       std::size_t i)
{
    return (b.units[plan.unitOf(i)] >> plan.shiftOf(i)) &
           ((1u << plan.bits) - 1);
}

/**
 * A random [nr x d] block; with @p edges it also holds a constant group,
 * zero-excluding groups, +-65504, an all-subnormal token and channel, a
 * NaN first in its groups, and one +inf and one -inf.
 */
Tensor<Half>
sweepBlock(Rng& rng, int nr, int d, int gs, bool edges)
{
    Tensor<Half> b({static_cast<std::size_t>(nr), static_cast<std::size_t>(d)});
    for (std::size_t i = 0; i < b.numel(); i++)
        b[i] = Half(rng.normal());
    if (!edges)
        return b;
    const auto at = [&](int t, int c) -> Half& {
        return b.at(static_cast<std::size_t>(t), static_cast<std::size_t>(c));
    };
    // gs x gs squares are whole groups under both granularities.
    const int tb = nr / gs > 1 ? gs : 0;
    for (int t = 0; t < gs; t++)
        for (int c = 0; c < gs; c++) {
            at(tb + t, c) = Half(0.75f);
            at(t, gs + c) = Half(100.f + std::fabs(rng.normal()));
        }
    for (int c = 0; c < d; c++)
        at(nr - 1, c) = Half::fromBits(static_cast<std::uint16_t>(
            1 + rng.uniformInt(0x3FF)));
    for (int t = 0; t < nr; t++)
        at(t, d - 1) = Half::fromBits(static_cast<std::uint16_t>(
            0x8000u | (1 + rng.uniformInt(0x3FF))));
    at(1, 3) = Half(65504.f);
    at(2, 3) = Half(-65504.f);
    at(0, 0) = Half::fromBits(0x7E00); // NaN
    at(nr / 2, d / 2) = Half::fromBits(0x7C00);     // +inf
    at(nr / 2 + 1, d / 2 + 1) = Half::fromBits(0xFC00); // -inf
    return b;
}

/** @p got packs like the oracle: same units and params. */
void
expectPackedLikeOracle(const kv::PackedBlock& got,
                       const kv::PackedBlock& oracle, const std::string& what)
{
    EXPECT_EQ(got.units, oracle.units) << what;
    ASSERT_EQ(got.params.numel(), oracle.params.numel()) << what;
    int mismatches = 0;
    for (std::size_t g = 0; g < oracle.params.numel(); g++)
        if (got.params[g].toWord() != oracle.params[g].toWord() &&
            ++mismatches < 4)
            ADD_FAILURE() << what << " params of group " << g;
    EXPECT_EQ(mismatches, 0) << what;
}

/**
 * Block @p b of @p cache (keys or values) dequantizes consistently:
 * exec::dequantBlock gives quant::dequantMagicValue of each code under
 * its group's params, and every supported level's dequant_linear gives
 * dequantBlock's bits in the plan's destination order.
 */
void
expectDequantsLikeMagicValue(const kv::PackedHeadCache& cache,
                             const kv::PackedBlock& b, bool keys,
                             const std::string& what)
{
    const int d = cache.headDim();
    const int nr = cache.residualBlockSize();
    const int bits = cache.config().bits;
    const std::size_t n = static_cast<std::size_t>(nr) * d;
    const exec::simd::LinearDequantPlan& plan =
        keys ? cache.keyLinearPlan() : cache.valueLinearPlan();
    std::vector<float> want(n), got(n);
    exec::dequantBlock(b.units, keys ? cache.keyRoutes() : cache.valueRoutes(),
                       b.params, bits, want.data());
    // Destination i of the plan is token-major element tm of want.
    const auto tokenMajor = [&](std::size_t i) {
        return keys ? (i % static_cast<std::size_t>(nr)) * d +
                          i / static_cast<std::size_t>(nr)
                    : i;
    };
    for (std::size_t i = 0; i < n; i++) {
        const quant::QuantParams p =
            quant::QuantParams::fromHalf2(b.params[plan.param[i] >> bits]);
        const float magic = quant::dequantMagicValue(
            static_cast<std::uint8_t>(codeAt(b, plan, i)), p);
        ASSERT_TRUE(sameBits(want[tokenMajor(i)], magic))
            << what << " dequantBlock vs dequantMagicValue at " << i;
    }
    std::vector<float> scratch(
        exec::simd::dequantScratch(b.params.numel(), bits));
    for (const auto& [kt, name] : supportedKernelTables()) {
        std::fill(got.begin(), got.end(), -1.f);
        kt->dequant_linear(b.units.data(), b.params.data(), b.params.numel(),
                           plan.view(), got.data(), scratch.data());
        for (std::size_t i = 0; i < n; i++)
            ASSERT_TRUE(sameBits(got[i], want[tokenMajor(i)]))
                << what << " " << name << " vs dequantBlock at " << i;
    }
}

struct TilingCase
{
    sim::MmaShape mma;
    int wn;
    int bits;
};

class InductionSweepP : public ::testing::TestWithParam<TilingCase>
{
};

TEST_P(InductionSweepP, ResidualBlockAlignsInducedLayout)
{
    // Eq. 1's purpose as a property: for ANY (mma, wn, bits), a block of
    // Nr tokens yields an induced layout with zero partial units, and
    // every SIMD level's one-pass pack equals the warp-emulated
    // Residual-Kernel pack, KC and KT, on random and edge-case blocks.
    const auto [mma, wn, bits] = GetParam();
    layout::WarpTiling tiling;
    tiling.mma = mma;
    tiling.wn = wn;
    const int nr = layout::residualBlockSize(tiling, bits);
    // d must cover one full packing group along N (pn * R) for V blocks.
    const int d = 64;

    const layout::InducedLayout klay(tiling, bits, d, nr);
    const layout::InducedLayout vlay(tiling, bits, nr, d);
    EXPECT_EQ(static_cast<int>(klay.numUnits()) * klay.codesPerUnit(),
              d * nr);
    EXPECT_EQ(static_cast<int>(vlay.numUnits()) * vlay.codesPerUnit(),
              d * nr);

    Rng rng(GetParam().wn * 100 + bits);
    for (const auto gran :
         {quant::Granularity::ChannelWise, quant::Granularity::TensorWise}) {
        for (int gs : {16, 32}) {
            quant::QuantConfig qc;
            qc.bits = bits;
            qc.key_granularity = gran;
            qc.group_size = gs;
            const kv::PackedHeadCache cache(d, qc, tiling);
            for (bool edges : {false, true}) {
                const Tensor<Half> kb = sweepBlock(rng, nr, d, gs, edges);
                const Tensor<Half> vb = sweepBlock(rng, nr, d, gs, edges);
                const kv::PackedBlock wk =
                    core::residualKernelPackKeys(kb, qc, klay);
                const kv::PackedBlock wv =
                    core::residualKernelPackValues(vb, qc, vlay);
                const std::string cfg = qc.label() + " gs=" +
                                        std::to_string(gs) +
                                        (edges ? " edges" : "");
                expectDequantsLikeMagicValue(cache, wk, true, cfg + " K");
                expectDequantsLikeMagicValue(cache, wv, false, cfg + " V");
                for (const auto& [kt, name] : supportedKernelTables()) {
                    kv::PackedBlock ck, cv;
                    kv::packBlock(*kt, cache, kb.data(), vb.data(), ck, cv);
                    const std::string what =
                        std::string(name) + " " + qc.label() + " gs=" +
                        std::to_string(gs) + (edges ? " edges" : "");
                    expectPackedLikeOracle(ck, wk, what + " K");
                    expectPackedLikeOracle(cv, wv, what + " V");
                }
            }
        }
    }
}

TEST_P(InductionSweepP, EveryHalfPatternQuantizesLikeQuantizeValue)
{
    // All 65536 binary16 patterns through every level's quantize-pack,
    // in tensor-wise groups of 16 led by a (lo, hi) pin pair that sets
    // the scale: huge, moderate, exact-power-of-two (every half-way tie
    // of round-half-away-from-zero, both signs) and subnormal. Finite
    // inputs code like quant::quantizeValue under the group's
    // computeParams; every level writes the scalar level's bytes,
    // non-finite inputs included.
    const auto [mma, wn, bits] = GetParam();
    layout::WarpTiling tiling;
    tiling.mma = mma;
    tiling.wn = wn;
    const int d = 64, gs = 16;
    quant::QuantConfig qc;
    qc.bits = bits;
    qc.key_granularity = quant::Granularity::TensorWise;
    qc.group_size = gs;
    const kv::PackedHeadCache cache(d, qc, tiling);
    const int nr = cache.residualBlockSize();
    const std::size_t n = static_cast<std::size_t>(nr) * d;
    const float top = static_cast<float>((1 << bits) - 1) / 16.f;
    const auto tables = supportedKernelTables();
    for (const auto& [lo, hi] :
         {std::pair{-65504.f, 65504.f}, std::pair{-1.f, 1.f},
          std::pair{0.f, top}, std::pair{-top, 0.f},
          std::pair{-std::ldexp(1.f, -14), std::ldexp(1.f, -14)}}) {
        std::uint32_t pattern = 0;
        while (pattern < 65536) {
            Tensor<Half> blk({static_cast<std::size_t>(nr),
                              static_cast<std::size_t>(d)});
            for (std::size_t i = 0; i < n; i++) {
                if (i % gs < 2)
                    blk[i] = Half(i % gs == 0 ? lo : hi);
                else
                    blk[i] = Half::fromBits(
                        static_cast<std::uint16_t>(pattern++ & 0xFFFF));
            }
            kv::PackedBlock sk, sv;
            kv::packBlock(*tables[0].first, cache, blk.data(), blk.data(), sk,
                          sv);
            for (std::size_t l = 1; l < tables.size(); l++) {
                kv::PackedBlock ck, cv;
                kv::packBlock(*tables[l].first, cache, blk.data(), blk.data(),
                              ck, cv);
                for (const auto& [got, want] :
                     {std::pair{&ck, &sk}, std::pair{&cv, &sv}}) {
                    ASSERT_EQ(got->units, want->units) << tables[l].second;
                    ASSERT_EQ(0, std::memcmp(got->params.data(),
                                             want->params.data(),
                                             want->params.numel() * 4))
                        << tables[l].second;
                }
            }
            const auto& kp = cache.keyLinearPlan();
            const auto& vp = cache.valueLinearPlan();
            for (int t = 0; t < nr; t++) {
                for (int g = 0; g < d / gs; g++) {
                    const Half* x = blk.data() +
                                    static_cast<std::size_t>(t) * d + g * gs;
                    float mn = x[0].toFloat(), mx = mn;
                    for (int i = 1; i < gs; i++) {
                        mn = std::min(mn, x[i].toFloat());
                        mx = std::max(mx, x[i].toFloat());
                    }
                    const quant::QuantParams p =
                        quant::computeParams(mn, mx, bits);
                    const std::size_t gi =
                        static_cast<std::size_t>(t) * (d / gs) + g;
                    ASSERT_EQ(sk.params[gi].toWord(), p.asHalf2().toWord());
                    for (int i = 0; i < gs; i++) {
                        if (!std::isfinite(x[i].toFloat()))
                            continue;
                        const unsigned want =
                            quant::quantizeValue(x[i].toFloat(), p, bits);
                        const int c = g * gs + i;
                        ASSERT_EQ(codeAt(sk, kp,
                                         static_cast<std::size_t>(c) * nr + t),
                                  want)
                            << "x=0x" << std::hex << x[i].bits();
                        ASSERT_EQ(codeAt(sv, vp,
                                         static_cast<std::size_t>(t) * d + c),
                                  want)
                            << "x=0x" << std::hex << x[i].bits();
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InductionSweepP,
    ::testing::Values(TilingCase{sim::MmaShape::M16N8K16, 1, 4},
                      TilingCase{sim::MmaShape::M16N8K16, 2, 4},
                      TilingCase{sim::MmaShape::M16N8K16, 8, 4},
                      TilingCase{sim::MmaShape::M16N8K16, 2, 2},
                      TilingCase{sim::MmaShape::M16N8K8, 4, 4},
                      TilingCase{sim::MmaShape::M16N8K8, 2, 2}));

/** expectDequantsLikeMagicValue on @p b with its codes rewritten in
 *  2^bits rounds: destination i takes (its rank in its group + round),
 *  so every group meets every code under the block's params. */
void
expectEveryCodeDequants(const kv::PackedHeadCache& cache,
                        const kv::PackedBlock& b, bool keys,
                        const std::string& what)
{
    const int bits = cache.config().bits;
    const exec::simd::LinearDequantPlan& plan =
        keys ? cache.keyLinearPlan() : cache.valueLinearPlan();
    std::vector<unsigned> rank(plan.size());
    std::vector<unsigned> seen(b.params.numel());
    for (std::size_t i = 0; i < plan.size(); i++)
        rank[i] = seen[plan.param[i] >> bits]++;
    for (unsigned r = 0; r < (1u << bits); r++) {
        kv::PackedBlock all = b;
        std::fill(all.units.begin(), all.units.end(), 0u);
        for (std::size_t i = 0; i < plan.size(); i++)
            all.units[plan.unitOf(i)] |= ((rank[i] + r) & ((1u << bits) - 1))
                                         << plan.shiftOf(i);
        expectDequantsLikeMagicValue(cache, all, keys,
                                     what + " round " + std::to_string(r));
    }
}

TEST(DequantSweep, EveryLevelMatchesDequantBlockAndMagicValue)
{
    // The LUT-free dequant over every cache shape it serves: bits 2/4 x
    // KC/KT x group 16/32/64 x wn 2/4/8, on random and edge-case blocks
    // (subnormal scales, +-65504, NaN and +-inf zero points), as packed
    // and with every group meeting every code.
    const int d = 128;
    for (int bits : {2, 4})
        for (const auto gran : {quant::Granularity::ChannelWise,
                                quant::Granularity::TensorWise})
            for (int gs : {16, 32, 64})
                for (int wn : {2, 4, 8}) {
                    layout::WarpTiling tiling;
                    tiling.wn = wn;
                    quant::QuantConfig qc;
                    qc.bits = bits;
                    qc.key_granularity = gran;
                    qc.group_size = gs;
                    const kv::PackedHeadCache cache(d, qc, tiling);
                    const int nr = cache.residualBlockSize();
                    Rng rng(static_cast<std::uint64_t>(bits * 1000 +
                                                       gs * 10 + wn));
                    for (bool edges : {false, true}) {
                        const Tensor<Half> k =
                            sweepBlock(rng, nr, d, gs, edges);
                        const Tensor<Half> v =
                            sweepBlock(rng, nr, d, gs, edges);
                        kv::PackedBlock kb, vb;
                        kv::packBlock(*exec::simd::scalarKernels(), cache,
                                      k.data(), v.data(), kb, vb);
                        const std::string what =
                            qc.label() + " gs=" + std::to_string(gs) +
                            " wn=" + std::to_string(wn) +
                            (edges ? " edges" : "");
                        expectDequantsLikeMagicValue(cache, kb, true,
                                                     what + " K");
                        expectDequantsLikeMagicValue(cache, vb, false,
                                                     what + " V");
                        expectEveryCodeDequants(cache, kb, true, what + " K");
                        expectEveryCodeDequants(cache, vb, false,
                                                what + " V");
                    }
                }
}

// -------------------------------------------------- fast-dequant sweeps ----

class DequantParamSweepP
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(DequantParamSweepP, FastPathBitExactOverParamGrid)
{
    // Bit-exactness must hold for every (scale magnitude, zero) corner,
    // including subnormal-scale and large-zero regions.
    const auto [bits, scale_exp] = GetParam();
    const float scale = std::ldexp(1.0f, scale_exp);
    for (float zero : {0.f, 1.f, 7.f, 15.f}) {
        quant::QuantParams p{Half(scale), Half(zero)};
        Rng rng(99);
        for (int trial = 0; trial < 50; trial++) {
            std::uint8_t codes[16];
            const int n = quant::codesPerWord(bits);
            for (int i = 0; i < n; i++)
                codes[i] =
                    static_cast<std::uint8_t>(rng.uniformInt(1u << bits));
            const std::uint32_t w =
                quant::packWord(codes, bits, quant::PackOrder::Interleaved);
            Half fast[16], ref[16];
            quant::fastDequantWord(w, bits, p, fast);
            quant::referenceDequantWord(w, bits,
                                        quant::PackOrder::Interleaved, p,
                                        ref);
            for (int i = 0; i < n; i++)
                EXPECT_EQ(fast[i].bits(), ref[i].bits())
                    << "bits=" << bits << " scale=2^" << scale_exp
                    << " zero=" << zero;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DequantParamSweepP,
                         ::testing::Values(std::pair{4, -10}, std::pair{4, -4},
                                           std::pair{4, 0}, std::pair{4, 3},
                                           std::pair{2, -8}, std::pair{2, -2},
                                           std::pair{2, 2}));

// ----------------------------------------------------- timing invariants ----

TEST(TimingProperties, FasterMemoryNeverSlowsAttention)
{
    // Across architectures ordered by bandwidth, the same memory-bound
    // decode never gets slower.
    attn::DecodeShape s;
    s.batch = 16;
    s.num_q_heads = 32;
    s.num_kv_heads = 8;
    s.seq_len = 32768;
    const double t4090 =
        attn::flashDecodingTime(sim::archRTX4090(), s, 2).total_s;
    const double t5090 =
        attn::flashDecodingTime(sim::archRTX5090(), s, 2).total_s;
    const double ta100 = attn::flashDecodingTime(sim::archA100(), s, 2).total_s;
    const double th100 = attn::flashDecodingTime(sim::archH100(), s, 2).total_s;
    EXPECT_GT(t4090, t5090); // 1.0 vs 1.8 TB/s
    EXPECT_GT(t5090, ta100); // 1.8 vs 2.0 TB/s
    EXPECT_GT(ta100, th100); // 2.0 vs 3.4 TB/s
}

TEST(TimingProperties, SpeedupMonotoneInBitWidth)
{
    // For every architecture and context length: fewer bits, never slower.
    core::BitDecodingConfig c8, c4, c2;
    c8.quant.bits = 8;
    c4.quant.bits = 4;
    c2.quant.bits = 2;
    for (const auto* arch : {&sim::archA100(), &sim::archRTX4090(),
                             &sim::archH100()}) {
        for (int len : {4096, 65536}) {
            attn::DecodeShape s;
            s.batch = 4;
            s.num_q_heads = 32;
            s.num_kv_heads = 8;
            s.seq_len = len;
            const double t8 = core::bitDecodingTime(*arch, s, c8).total_s;
            const double t4 = core::bitDecodingTime(*arch, s, c4).total_s;
            const double t2 = core::bitDecodingTime(*arch, s, c2).total_s;
            EXPECT_GE(t8, t4) << arch->name << " len=" << len;
            EXPECT_GE(t4, t2) << arch->name << " len=" << len;
        }
    }
}

TEST(TimingProperties, LatencyMonotoneInContextAndBatch)
{
    core::BitDecodingConfig cfg;
    double prev = 0;
    for (int len : {1024, 4096, 16384, 65536}) {
        attn::DecodeShape s;
        s.batch = 4;
        s.num_q_heads = 32;
        s.num_kv_heads = 8;
        s.seq_len = len;
        const double t = core::bitDecodingTime(sim::archA100(), s, cfg).total_s;
        EXPECT_GT(t, prev);
        prev = t;
    }
    prev = 0;
    for (int bs : {1, 4, 16, 64}) {
        attn::DecodeShape s;
        s.batch = bs;
        s.num_q_heads = 32;
        s.num_kv_heads = 8;
        s.seq_len = 8192;
        const double t = core::bitDecodingTime(sim::archA100(), s, cfg).total_s;
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(TimingProperties, MetadataOverheadShrinksWithGroupSize)
{
    attn::DecodeShape s;
    s.batch = 4;
    s.num_q_heads = 32;
    s.num_kv_heads = 8;
    s.seq_len = 16384;
    quant::QuantConfig a, b;
    a.group_size = 32;
    b.group_size = 128;
    EXPECT_GT(s.metadataBytes(a), s.metadataBytes(b));
}

// ------------------------------------------------- functional invariants ----

TEST(FunctionalProperties, AttentionOutputInConvexHullOfValues)
{
    // Attention output is a convex combination of value rows; this must
    // survive quantization, packing and the fused kernel path.
    core::BitDecodingConfig cfg;
    core::HeadDecoder dec(32, cfg);
    Rng rng(314);
    const int nr = dec.cache().residualBlockSize();
    Tensor<Half> k({static_cast<std::size_t>(nr), 32});
    Tensor<Half> v({static_cast<std::size_t>(nr), 32});
    float vmin = 1e9f, vmax = -1e9f;
    for (std::size_t i = 0; i < k.numel(); i++) {
        k[i] = Half(rng.normal());
        v[i] = Half(rng.normal());
        vmin = std::min(vmin, v[i].toFloat());
        vmax = std::max(vmax, v[i].toFloat());
    }
    dec.prefill(k, v);
    Tensor<Half> q({4, 32});
    for (std::size_t i = 0; i < q.numel(); i++)
        q[i] = Half(rng.normal());
    const auto res = dec.decodeStep(q, 0.18f);
    // Quantization can stretch the hull by its error bound only.
    const float slack = 0.5f;
    for (std::size_t g = 0; g < 4; g++) {
        for (std::size_t c = 0; c < 32; c++) {
            EXPECT_GE(res.out.at(g, c), vmin - slack);
            EXPECT_LE(res.out.at(g, c), vmax + slack);
        }
    }
}

TEST(FunctionalProperties, ScaleInvarianceOfArgmaxRetrieval)
{
    // Scaling all keys by a constant multiplies logits uniformly and must
    // not change which token the (packed, quantized) attention retrieves.
    const int d = 32;
    Rng rng(271);
    core::BitDecodingConfig cfg;
    for (float key_scale : {0.5f, 1.0f, 2.0f}) {
        core::HeadDecoder dec(d, cfg);
        const int nr = dec.cache().residualBlockSize();
        Tensor<Half> k({static_cast<std::size_t>(nr),
                        static_cast<std::size_t>(d)});
        Tensor<Half> v({static_cast<std::size_t>(nr),
                        static_cast<std::size_t>(d)});
        Rng local(99);
        for (std::size_t i = 0; i < k.numel(); i++) {
            k[i] = Half(local.normal() * key_scale);
            v[i] = Half(local.normal());
        }
        // Plant a strong needle at token 7 matching the query direction.
        Tensor<Half> q({1, static_cast<std::size_t>(d)});
        for (int c = 0; c < d; c++) {
            q.at(0, static_cast<std::size_t>(c)) = Half(1.0f);
            k.at(7, static_cast<std::size_t>(c)) = Half(3.0f * key_scale);
            v.at(7, static_cast<std::size_t>(c)) = Half(5.0f);
        }
        dec.prefill(k, v);
        const auto res = dec.decodeStep(q, 2.0f / key_scale);
        // Needle value dominates the output for any key scale.
        EXPECT_GT(res.out.at(0, 0), 4.0f) << "key_scale=" << key_scale;
    }
    (void)rng;
}

// -------------------------------------------------- e2e model invariants ----

TEST(ModelProperties, ThroughputMonotoneInBatchUntilOom)
{
    model::E2EConfig bd;
    bd.system = model::SystemKind::BitDecoding;
    double prev = 0;
    for (int bs = 1; bs <= 32; bs *= 2) {
        const auto r = model::decodeThroughput(
            sim::archA100(), model::llama31_8b(), 8192, bs, bd);
        if (r.oom)
            break;
        EXPECT_GT(r.tokens_per_s, prev);
        prev = r.tokens_per_s;
    }
    EXPECT_GT(prev, 0);
}

TEST(ModelProperties, LongerContextNeverRaisesThroughput)
{
    model::E2EConfig bd;
    bd.system = model::SystemKind::BitDecoding;
    double prev = 1e18;
    for (int len : {4096, 16384, 65536}) {
        const auto r = model::decodeThroughput(
            sim::archA100(), model::llama31_8b(), len, 4, bd);
        ASSERT_FALSE(r.oom);
        EXPECT_LT(r.tokens_per_s, prev);
        prev = r.tokens_per_s;
    }
}

TEST(ModelProperties, EveryModelRunsEverySystemAt4k)
{
    for (const auto* m :
         {&model::llama2_7b(), &model::llama31_8b(), &model::qwen3_8b(),
          &model::qwen3_14b()}) {
        for (auto sys : {model::SystemKind::FlashDecodingFp16,
                         model::SystemKind::Kivi, model::SystemKind::QServe,
                         model::SystemKind::BitDecoding}) {
            model::E2EConfig c;
            c.system = sys;
            const auto t =
                model::decodeStepTime(sim::archA100(), *m, 4096, 1, c);
            EXPECT_GT(t.total_s, 0) << m->name;
            EXPECT_TRUE(std::isfinite(t.total_s)) << m->name;
        }
    }
}

// ------------------------------------------------- SIMD bit-exactness ----

TEST(SimdProperties, ConvertRowsWidensEveryHalfPatternExactly)
{
    // Exhaustive: all 65536 binary16 patterns — normals, denormals,
    // zeros, infinities and NaNs — must widen exactly as the scalar LUT
    // does. NaNs compare as NaN-ness (F16C may quiet a signaling payload
    // differently); no NaN ever reaches the hot path from real caches.
    const auto tables = supportedKernelTables();
    std::vector<Half> src(65536);
    for (std::uint32_t i = 0; i < 65536; i++)
        src[i] = Half::fromBits(static_cast<std::uint16_t>(i));
    const float* lut = halfToFloatLut();
    for (const auto& [kt, name] : tables) {
        std::vector<float> dst(65536, -1.f);
        kt->convert_rows(src.data(), src.size(), dst.data());
        int mismatches = 0;
        for (std::uint32_t i = 0; i < 65536; i++) {
            const bool ok = std::isnan(lut[i])
                                ? std::isnan(dst[i])
                                : sameBits(dst[i], lut[i]);
            if (!ok && ++mismatches < 4)
                ADD_FAILURE() << name << " pattern 0x" << std::hex << i;
        }
        EXPECT_EQ(mismatches, 0) << name;
    }
}

TEST(SimdProperties, ConvertTransposeMatchesLutAtOddShapes)
{
    // The 8x8-block transpose must stay exact across both tail axes:
    // tokens % 8 != 0 and d % 8 != 0, down to a single token.
    const auto tables = supportedKernelTables();
    Rng rng(4242);
    for (const auto& [kt, name] : tables) {
        for (const auto& [tokens, d] : {std::pair{1, 37}, std::pair{13, 24},
                                       std::pair{16, 16}, std::pair{23, 129}}) {
            std::vector<Half> src(static_cast<std::size_t>(tokens) * d);
            for (auto& h : src)
                h = Half(rng.normal());
            std::vector<float> kT(src.size(), -1.f);
            kt->convert_transpose(src.data(), tokens, d, kT.data(), tokens);
            const float* lut = halfToFloatLut();
            for (int t = 0; t < tokens; t++)
                for (int c = 0; c < d; c++)
                    ASSERT_TRUE(sameBits(
                        kT[static_cast<std::size_t>(c) * tokens + t],
                        lut[src[static_cast<std::size_t>(t) * d + c].bits()]))
                        << name << " tokens=" << tokens << " d=" << d;
        }
    }
}

TEST(SimdProperties, ScalarNarrowingRoundsLikeFloatToHalfBits)
{
    // The portable level's narrowWiden (P's half rounding and the dequant
    // value rows) must equal halfBitsToFloat(floatToHalfBits(x)) for
    // every float. Every rounding decision sits at a Half value, the
    // midpoint to its upper neighbour, or one float step either side of
    // those; check them all, both signs, plus overflow and NaN payloads.
    const auto expectSame = [](float x) {
        const float want = halfBitsToFloat(floatToHalfBits(x));
        const float got = exec::simd::impl::Lane1::narrowWiden(x);
        ASSERT_TRUE(sameBits(got, want))
            << "x bits 0x" << std::hex << std::bit_cast<std::uint32_t>(x);
    };
    for (std::uint32_t h = 0; h < 0x7C00; h++) {
        const float lo = halfBitsToFloat(static_cast<std::uint16_t>(h));
        const float hi =
            h + 1 < 0x7C00 ? halfBitsToFloat(static_cast<std::uint16_t>(h + 1))
                           : 65536.f; // where 65504 rounds away to inf
        const float mid = lo + (hi - lo) / 2;
        for (float x : {lo, mid}) {
            for (float y : {std::nextafter(x, -1.f), x,
                            std::nextafter(x, 1e30f)}) {
                expectSame(y);
                expectSame(-y);
            }
        }
    }
    for (std::uint32_t bits : {0x7F800000u, 0x7F800001u, 0x7FC00000u,
                               0x7FFFFFFFu, 0x7F802000u, 0x7FBFE000u,
                               0x7F7FFFFFu, 0x477FF000u, 0x477FEFFFu})
        for (std::uint32_t sign : {0u, 0x80000000u})
            expectSame(std::bit_cast<float>(bits | sign));
}

TEST(SimdProperties, LinearDequantBitExactUnderExtremeHalves)
{
    // The gathered linear-plan dequant must reproduce the route-walking
    // scalar dequant bit-for-bit, including blocks quantized from
    // denormal and near-max half content (extreme scales/zeros stress
    // the LUT corners). K additionally checks the channel-major remap.
    for (int bits : {4, 2}) {
        quant::QuantConfig qc;
        qc.bits = bits;
        const int d = 64;
        kv::PackedHeadCache cache(d, qc, layout::WarpTiling{});
        const int nr = cache.residualBlockSize();
        Rng rng(2026 + bits);
        for (int t = 0; t < nr; t++) {
            std::vector<Half> k(static_cast<std::size_t>(d)),
                v(static_cast<std::size_t>(d));
            for (int c = 0; c < d; c++) {
                switch (rng.uniformInt(4)) {
                case 0: // denormal half
                    k[static_cast<std::size_t>(c)] = Half::fromBits(
                        static_cast<std::uint16_t>(1 + rng.uniformInt(0x3FF)));
                    break;
                case 1: // near half-max
                    k[static_cast<std::size_t>(c)] =
                        Half(60000.f * (rng.normal() > 0 ? 1.f : -1.f));
                    break;
                default:
                    k[static_cast<std::size_t>(c)] = Half(rng.normal());
                }
                v[static_cast<std::size_t>(c)] = Half(rng.normal() * 100.f);
            }
            cache.append(k, v);
        }
        ASSERT_EQ(static_cast<int>(cache.keyBlocks().size()), 1);
        const kv::PackedBlock& kb = cache.keyBlocks()[0];
        const kv::PackedBlock& vb = cache.valueBlocks()[0];
        const std::size_t n = static_cast<std::size_t>(nr) * d;
        std::vector<float> k_ref(n), v_ref(n);
        exec::dequantBlock(kb.units, cache.keyRoutes(), kb.params, bits,
                           k_ref.data());
        exec::dequantBlock(vb.units, cache.valueRoutes(), vb.params, bits,
                           v_ref.data());
        const auto kp = cache.keyLinearPlan().view();
        const auto vp = cache.valueLinearPlan().view();
        std::vector<float> scratch(exec::simd::dequantScratch(
            std::max(kb.params.numel(), vb.params.numel()), bits));
        for (const auto& [kt, name] : supportedKernelTables()) {
            std::vector<float> k_simd(n, -1.f), v_simd(n, -1.f);
            kt->dequant_linear(kb.units.data(), kb.params.data(),
                               kb.params.numel(), kp, k_simd.data(),
                               scratch.data());
            kt->dequant_linear(vb.units.data(), vb.params.data(),
                               vb.params.numel(), vp, v_simd.data(),
                               scratch.data());
            for (int t = 0; t < nr; t++)
                for (int c = 0; c < d; c++) {
                    const std::size_t tm =
                        static_cast<std::size_t>(t) * d + c; // token-major
                    const std::size_t cm =
                        static_cast<std::size_t>(c) * nr + t; // channel-major
                    ASSERT_TRUE(sameBits(k_simd[cm], k_ref[tm]))
                        << name << " K bits=" << bits << " t=" << t
                        << " c=" << c;
                    ASSERT_TRUE(sameBits(v_simd[tm], v_ref[tm]))
                        << name << " V bits=" << bits << " t=" << t
                        << " c=" << c;
                }
        }
    }
}

TEST(SimdProperties, FoldTileMatchesTokenMajorOracleBitwise)
{
    // Every level's fold_tile must reproduce exec::foldTile bit for bit —
    // m, l and acc — at shapes off every vector grid (tokens not a
    // multiple of 4 x W, d not a multiple of W), with and without the
    // packed path's half rounding of P, for query groups that leave
    // every remainder of the fold's row blocks. Two tiles fold in
    // sequence so the second exercises the running-max rescale of a
    // non-empty state.
    const float scale = 0.3f;
    for (const int gq : {1, 2, 3, 4, 5, 8, 16}) {
        for (const int tokens : {1, 13, 64, 67}) {
            for (const int d : {4, 24, 37, 128}) {
                for (const bool round_p : {false, true}) {
                    Rng rng(static_cast<std::uint64_t>(tokens * 1000 + d));
                    const std::size_t n =
                        static_cast<std::size_t>(tokens) * d;
                    std::vector<float> qf(static_cast<std::size_t>(gq) * d);
                    for (float& x : qf)
                        x = rng.normal();
                    std::vector<float> k[2], v[2], kT[2];
                    for (int i = 0; i < 2; i++) {
                        k[i].resize(n);
                        v[i].resize(n);
                        kT[i].resize(n);
                        for (std::size_t e = 0; e < n; e++) {
                            k[i][e] = rng.normal();
                            v[i][e] = rng.normal();
                        }
                        for (int t = 0; t < tokens; t++)
                            for (int c = 0; c < d; c++)
                                kT[i][static_cast<std::size_t>(c) * tokens +
                                      t] =
                                    k[i][static_cast<std::size_t>(t) * d + c];
                    }
                    exec::SoftmaxPartial want;
                    want.init(gq, d);
                    for (int i = 0; i < 2; i++)
                        exec::foldTile(qf.data(), gq, d, k[i].data(),
                                       v[i].data(), tokens, scale, want,
                                       round_p);
                    for (const auto& [kt, name] : supportedKernelTables()) {
                        exec::SoftmaxPartial got;
                        got.init(gq, d);
                        std::vector<float> s(static_cast<std::size_t>(gq) *
                                             static_cast<std::size_t>(tokens));
                        for (int i = 0; i < 2; i++)
                            kt->fold_tile(qf.data(), gq, d, kT[i].data(),
                                          tokens, v[i].data(), tokens, scale,
                                          got.m.data(), got.l.data(),
                                          got.acc.data(), s.data(), round_p);
                        for (int r = 0; r < gq; r++) {
                            ASSERT_TRUE(sameBits(got.m[r], want.m[r]))
                                << name << " gq=" << gq << " tokens=" << tokens
                                << " d=" << d;
                            ASSERT_TRUE(sameBits(got.l[r], want.l[r]))
                                << name << " gq=" << gq << " tokens=" << tokens
                                << " d=" << d;
                        }
                        for (std::size_t e = 0; e < got.acc.size(); e++)
                            ASSERT_TRUE(sameBits(got.acc[e], want.acc[e]))
                                << name << " gq=" << gq << " tokens=" << tokens
                                << " d=" << d << " round_p=" << round_p
                                << " elem=" << e;
                    }
                }
            }
        }
    }
}

TEST(SimdProperties, TailShapesDigestEqualToScalarTwin)
{
    // End-to-end digest equality between every available SIMD sibling
    // and its scalar twin over shapes chosen to stress the vector tails:
    // contexts not divisible by any vector width, single-token pages,
    // ranges straddling page boundaries, and head dims off the 8-lane
    // grid (fp16/paged only; the packed cache constrains d).
    auto& reg = backend::BackendRegistry::instance();
    struct Shape
    {
        int context, head_dim, gq, page_size;
    };
    const std::vector<Shape> general = {
        {1, 32, 1, 1},     // single token, single-token pages
        {7, 24, 2, 3},     // d % 8 != 0, tiny pages
        {97, 40, 4, 13},   // page-straddling odd context
        {129, 32, 3, 64},  // one token past a 128-chunk boundary
        {333, 128, 8, 31}, // full-width head, odd everything
    };
    const std::vector<Shape> packed_safe = {
        {1, 32, 1, 1},
        {97, 32, 4, 13},
        {129, 64, 3, 64},
        {333, 128, 8, 31},
    };
    int compared = 0;
    for (const std::string& name : reg.availableNames()) {
        std::string twin;
        if (name.ends_with("-avx2"))
            twin = name.substr(0, name.size() - 5);
        else if (name.ends_with("-avx512"))
            twin = name.substr(0, name.size() - 7);
        else
            continue;
        const bool packed = name.find("packed") != std::string::npos;
        for (const Shape& s : packed ? packed_safe : general) {
            backend::FixtureConfig fc;
            fc.context = s.context;
            fc.head_dim = s.head_dim;
            fc.gq = s.gq;
            fc.page_size = s.page_size;
            const backend::AttentionBackend& be = reg.resolve(name);
            const backend::AttentionBackend& sc = reg.resolve(twin);
            const backend::DecodeFixture fx(be, fc);
            const backend::DecodeFixture fxs(sc, fc);
            backend::DecodeBatch b = fx.batch();
            backend::DecodeBatch bs = fxs.batch();
            b.scale = bs.scale = 0.17f;
            EXPECT_EQ(be.digest(b), sc.digest(bs))
                << name << " context=" << s.context << " d=" << s.head_dim
                << " page=" << s.page_size;
            compared++;
        }
    }
    if (compared == 0)
        GTEST_SKIP() << "host runs no SIMD sibling: "
                     << exec::simd::describeCpuFeatures();
}

} // namespace
} // namespace bitdec
