/**
 * @file
 * Tests for the quantization library: parameter math, packing orders, the
 * lop3 fast-dequant path (bit-exact), MX formats and repack baselines.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "gpusim/arch.h"
#include "quant/fast_dequant.h"
#include "quant/int_quant.h"
#include "quant/mx_format.h"
#include "quant/packing.h"
#include "quant/quant_params.h"
#include "quant/repack_baselines.h"

namespace bitdec::quant {
namespace {

// ------------------------------------------------------------ int quant ----

TEST(IntQuant, ParamsSpanTheRange)
{
    const QuantParams p = computeParams(-1.0f, 1.0f, 4);
    EXPECT_NEAR(p.scale.toFloat(), 2.0f / 15.0f, 1e-3f);
    // min maps near code 0, max near code 15.
    EXPECT_EQ(quantizeValue(-1.0f, p, 4), 0);
    EXPECT_EQ(quantizeValue(1.0f, p, 4), 15);
}

TEST(IntQuant, DegenerateConstantGroup)
{
    const QuantParams p = computeParams(3.0f, 3.0f, 4);
    const auto q = quantizeValue(3.0f, p, 4);
    EXPECT_NEAR(dequantizeValue(q, p), 3.0f, 2e-3f);

    // A range narrower than half's smallest step: (2^-24 - 0) / 15
    // rounds to a zero scale, which must not leave a NaN zero point.
    const float tiny = std::ldexp(1.0f, -24);
    const QuantParams t = computeParams(0.f, tiny, 4);
    EXPECT_GT(t.scale.toFloat(), 0.f);
    EXPECT_TRUE(std::isfinite(t.zero.toFloat()));
    for (float x : {0.f, tiny})
        EXPECT_NEAR(dequantizeValue(quantizeValue(x, t, 4), t), x, tiny);
}

TEST(IntQuant, RoundTripErrorBoundedByHalfStep)
{
    Rng rng(5);
    for (int bits : {2, 4, 8}) {
        for (int trial = 0; trial < 200; trial++) {
            const float lo = rng.uniformRange(-8.f, -0.05f);
            const float hi = rng.uniformRange(0.05f, 8.f);
            const QuantParams p = computeParams(lo, hi, bits);
            const float x = rng.uniformRange(lo, hi);
            const float y = dequantizeValue(quantizeValue(x, p, bits), p);
            // Half-step plus half-precision parameter rounding slack.
            // Half-step plus half-precision scale/zero storage rounding.
            const float bound = 0.75f * p.scale.toFloat() +
                                0.05f * std::fabs(x) + 1e-2f;
            EXPECT_LE(std::fabs(y - x), bound)
                << "bits=" << bits << " x=" << x;
        }
    }
}

TEST(IntQuant, CodesStayInRange)
{
    Rng rng(6);
    for (int bits : {2, 4}) {
        const QuantParams p = computeParams(-1.f, 1.f, bits);
        for (int i = 0; i < 100; i++) {
            const float x = rng.uniformRange(-4.f, 4.f); // beyond the range
            const auto q = quantizeValue(x, p, bits);
            EXPECT_LT(q, 1 << bits);
        }
    }
}

struct GranCase
{
    Granularity gran;
    int bits;
    int group;
};

class QuantizeMatrixP : public ::testing::TestWithParam<GranCase>
{
};

TEST_P(QuantizeMatrixP, GroupedRoundTripWithinBound)
{
    const auto [gran, bits, group] = GetParam();
    Rng rng(7);
    Tensor<Half> x({64, 128});
    for (std::size_t i = 0; i < x.numel(); i++)
        x[i] = Half(rng.normal(0.f, 1.f));
    const QuantizedMatrix q = quantizeMatrix(x, bits, gran, group);
    // Params tensor shape follows the paper's Kp convention.
    if (gran == Granularity::TensorWise) {
        EXPECT_EQ(q.params.dim(0), 64u);
        EXPECT_EQ(q.params.dim(1), static_cast<std::size_t>(128 / group));
    } else {
        EXPECT_EQ(q.params.dim(0), static_cast<std::size_t>(64 / group));
        EXPECT_EQ(q.params.dim(1), 128u);
    }
    const float err = maxAbsError(x, q);
    // Normal data, range about [-4, 4]: step = range / (2^bits - 1).
    const float step = 8.5f / static_cast<float>((1 << bits) - 1);
    EXPECT_LE(err, step) << "granularity/bits/group case";
    EXPECT_GT(err, 0.f); // quantization is lossy
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuantizeMatrixP,
    ::testing::Values(GranCase{Granularity::TensorWise, 4, 32},
                      GranCase{Granularity::TensorWise, 4, 128},
                      GranCase{Granularity::TensorWise, 2, 32},
                      GranCase{Granularity::ChannelWise, 4, 32},
                      GranCase{Granularity::ChannelWise, 4, 64},
                      GranCase{Granularity::ChannelWise, 2, 32},
                      GranCase{Granularity::TensorWise, 8, 32},
                      GranCase{Granularity::ChannelWise, 8, 32}));

TEST(QuantizeMatrix, MoreBitsNeverWorse)
{
    Rng rng(8);
    Tensor<Half> x({32, 64});
    for (std::size_t i = 0; i < x.numel(); i++)
        x[i] = Half(rng.normal(0.f, 2.f));
    float prev = 1e9f;
    for (int bits : {2, 4, 8}) {
        const QuantizedMatrix q =
            quantizeMatrix(x, bits, Granularity::ChannelWise, 32);
        const float err = maxAbsError(x, q);
        EXPECT_LT(err, prev);
        prev = err;
    }
}

TEST(QuantConfig, LabelsAndRatios)
{
    QuantConfig c;
    c.bits = 4;
    c.key_granularity = Granularity::ChannelWise;
    EXPECT_EQ(c.label(), "KC-4");
    EXPECT_EQ(c.packingRatio(), 4);
    c.bits = 2;
    c.key_granularity = Granularity::TensorWise;
    EXPECT_EQ(c.label(), "KT-2");
    EXPECT_EQ(c.packingRatio(), 8);
}

// -------------------------------------------------------------- packing ----

TEST(Packing, FieldIndexIsPermutation)
{
    for (int bits : {2, 4}) {
        for (PackOrder order : {PackOrder::Linear, PackOrder::Interleaved}) {
            const int n = codesPerWord(bits);
            std::vector<bool> used(static_cast<std::size_t>(n), false);
            for (int i = 0; i < n; i++) {
                const int f = packFieldIndex(i, bits, order);
                EXPECT_GE(f, 0);
                EXPECT_LT(f, n);
                EXPECT_FALSE(used[static_cast<std::size_t>(f)]);
                used[static_cast<std::size_t>(f)] = true;
            }
        }
    }
}

TEST(Packing, Interleaved75316420PatternForInt4)
{
    // Reading nibble positions MSB->LSB of logical codes must spell
    // 7,5,3,1,6,4,2,0 (the paper's pattern).
    std::vector<int> logical_at_field(8);
    for (int i = 0; i < 8; i++)
        logical_at_field[static_cast<std::size_t>(
            packFieldIndex(i, 4, PackOrder::Interleaved))] = i;
    const std::vector<int> msb_to_lsb(logical_at_field.rbegin(),
                                      logical_at_field.rend());
    EXPECT_EQ(msb_to_lsb, (std::vector<int>{7, 5, 3, 1, 6, 4, 2, 0}));
}

TEST(Packing, RoundTripBothOrders)
{
    Rng rng(9);
    for (int bits : {2, 4}) {
        for (PackOrder order : {PackOrder::Linear, PackOrder::Interleaved}) {
            const int n = codesPerWord(bits);
            std::vector<std::uint8_t> codes(static_cast<std::size_t>(n));
            for (auto& c : codes)
                c = static_cast<std::uint8_t>(rng.uniformInt(1u << bits));
            const std::uint32_t w = packWord(codes.data(), bits, order);
            std::uint8_t out[16];
            unpackWord(w, bits, order, out);
            for (int i = 0; i < n; i++)
                EXPECT_EQ(out[i], codes[static_cast<std::size_t>(i)]);
        }
    }
}

TEST(Packing, StreamRoundTrip)
{
    Rng rng(10);
    std::vector<std::uint8_t> codes(256);
    for (auto& c : codes)
        c = static_cast<std::uint8_t>(rng.uniformInt(16));
    const auto words = packStream(codes, 4, PackOrder::Interleaved);
    EXPECT_EQ(words.size(), codes.size() / 8);
    EXPECT_EQ(unpackStream(words, 4, PackOrder::Interleaved), codes);
}

TEST(Packing, OrdersProduceDifferentWords)
{
    std::uint8_t codes[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_NE(packWord(codes, 4, PackOrder::Linear),
              packWord(codes, 4, PackOrder::Interleaved));
}

// --------------------------------------------------------- fast dequant ----

TEST(FastDequant, MagicPairYieldsBiasedHalves)
{
    // Pack codes 0..7 interleaved; pair j must surface (1024 + code_2j,
    // 1024 + code_2j+1).
    std::uint8_t codes[8] = {3, 14, 7, 0, 9, 5, 12, 1};
    const std::uint32_t w = packWord(codes, 4, PackOrder::Interleaved);
    for (int j = 0; j < 4; j++) {
        const std::uint32_t h2 = extractMagicPair(w, j, 4);
        const Half lo = Half::fromBits(static_cast<std::uint16_t>(h2 & 0xFFFF));
        const Half hi = Half::fromBits(static_cast<std::uint16_t>(h2 >> 16));
        EXPECT_EQ(lo.toFloat(), 1024.0f + codes[2 * j]);
        EXPECT_EQ(hi.toFloat(), 1024.0f + codes[2 * j + 1]);
    }
}

TEST(FastDequant, BitExactAgainstReferenceInt4)
{
    Rng rng(21);
    for (int trial = 0; trial < 300; trial++) {
        std::uint8_t codes[8];
        for (auto& c : codes)
            c = static_cast<std::uint8_t>(rng.uniformInt(16));
        const std::uint32_t w = packWord(codes, 4, PackOrder::Interleaved);
        const QuantParams p =
            computeParams(rng.uniformRange(-4.f, 0.f),
                          rng.uniformRange(0.1f, 4.f), 4);
        Half fast[8], ref[8];
        fastDequantWord(w, 4, p, fast);
        referenceDequantWord(w, 4, PackOrder::Interleaved, p, ref);
        for (int i = 0; i < 8; i++)
            EXPECT_EQ(fast[i].bits(), ref[i].bits()) << "i=" << i;
    }
}

TEST(FastDequant, BitExactAgainstReferenceInt2)
{
    Rng rng(22);
    for (int trial = 0; trial < 300; trial++) {
        std::uint8_t codes[16];
        for (auto& c : codes)
            c = static_cast<std::uint8_t>(rng.uniformInt(4));
        const std::uint32_t w = packWord(codes, 2, PackOrder::Interleaved);
        const QuantParams p =
            computeParams(rng.uniformRange(-2.f, 0.f),
                          rng.uniformRange(0.1f, 2.f), 2);
        Half fast[16], ref[16];
        fastDequantWord(w, 2, p, fast);
        referenceDequantWord(w, 2, PackOrder::Interleaved, p, ref);
        for (int i = 0; i < 16; i++)
            EXPECT_EQ(fast[i].bits(), ref[i].bits()) << "i=" << i;
    }
}

TEST(FastDequant, RecoversQuantizedValues)
{
    // End to end: quantize -> pack -> fast dequant == plain dequant.
    const QuantParams p = computeParams(-1.f, 1.f, 4);
    std::uint8_t codes[8];
    float vals[8] = {-1.f, -0.6f, -0.2f, 0.f, 0.2f, 0.5f, 0.8f, 1.f};
    for (int i = 0; i < 8; i++)
        codes[i] = quantizeValue(vals[i], p, 4);
    const std::uint32_t w = packWord(codes, 4, PackOrder::Interleaved);
    Half out[8];
    fastDequantWord(w, 4, p, out);
    for (int i = 0; i < 8; i++)
        EXPECT_NEAR(out[i].toFloat(), vals[i], 0.15f);
}

TEST(FastDequant, CostModelFavorsFastPath)
{
    for (int bits : {2, 4}) {
        const DequantCost fast = dequantWordCost(bits, true);
        const DequantCost slow = dequantWordCost(bits, false);
        EXPECT_LT(fast.alu + fast.fma, slow.alu + slow.fma);
    }
}

// ------------------------------------------------------------ MX formats ----

TEST(MxFormat, E2m1ValueSet)
{
    const float want[8] = {0, 0.5f, 1, 1.5f, 2, 3, 4, 6};
    for (int i = 0; i < 8; i++) {
        EXPECT_EQ(e2m1Decode(static_cast<std::uint8_t>(i)), want[i]);
        EXPECT_EQ(e2m1Decode(static_cast<std::uint8_t>(i | 0x8)), -want[i]);
    }
}

TEST(MxFormat, E2m1EncodeRoundsToNearestEven)
{
    EXPECT_EQ(e2m1Decode(e2m1Encode(2.4f)), 2.0f);
    EXPECT_EQ(e2m1Decode(e2m1Encode(2.6f)), 3.0f);
    EXPECT_EQ(e2m1Decode(e2m1Encode(2.5f)), 2.0f); // tie -> even mantissa
    EXPECT_EQ(e2m1Decode(e2m1Encode(-5.9f)), -6.0f);
    EXPECT_EQ(e2m1Decode(e2m1Encode(100.f)), 6.0f); // saturates
}

TEST(MxFormat, E8m0PowersOfTwo)
{
    EXPECT_EQ(e8m0Decode(127), 1.0f);
    EXPECT_EQ(e8m0Decode(128), 2.0f);
    EXPECT_EQ(e8m0Decode(126), 0.5f);
    EXPECT_EQ(e8m0Encode(4.0f), 129);
    EXPECT_EQ(e8m0Encode(5.0f), 129); // floor(log2(5)) = 2
    EXPECT_TRUE(std::isnan(e8m0Decode(0xFF)));
}

TEST(MxFormat, E4m3RoundTripOnRepresentables)
{
    for (float v : {0.0f, 0.25f, 1.0f, 1.125f, 448.0f, -3.5f}) {
        EXPECT_EQ(e4m3Decode(e4m3Encode(v)), v);
    }
    EXPECT_EQ(e4m3Decode(e4m3Encode(1000.f)), 448.0f); // saturation
    EXPECT_TRUE(std::isnan(e4m3Decode(0x7F)));
}

TEST(MxFormat, VectorEncodeBoundsError)
{
    Rng rng(31);
    for (MxKind kind : {MxKind::MXFP4, MxKind::NVFP4}) {
        std::vector<float> x(128);
        for (auto& v : x)
            v = rng.normal(0.f, 1.f);
        const MxVector enc = mxEncode(x, kind);
        EXPECT_EQ(enc.scales.size(),
                  x.size() / static_cast<std::size_t>(mxBlockSize(kind)));
        for (std::size_t b = 0; b < enc.scales.size(); b++) {
            float amax = 0, err = 0;
            const std::size_t bs =
                static_cast<std::size_t>(mxBlockSize(kind));
            for (std::size_t i = b * bs; i < (b + 1) * bs; i++) {
                amax = std::max(amax, std::fabs(x[i]));
                err = std::max(err, std::fabs(enc.valueAt(i) - x[i]));
            }
            // E2M1 relative step near the top of a block is ~1/4 amax.
            EXPECT_LE(err, amax * 0.3f + 1e-3f);
        }
    }
}

TEST(MxFormat, MatrixRoundTripShapes)
{
    Rng rng(32);
    Tensor<Half> x({8, 64});
    for (std::size_t i = 0; i < x.numel(); i++)
        x[i] = Half(rng.normal(0.f, 1.f));
    const MxMatrix m = mxEncodeMatrix(x, MxKind::MXFP4);
    EXPECT_EQ(m.scales.dim(1), 2u); // 64 / 32 blocks per row
    const Tensor<Half> back = mxDecodeMatrix(m);
    float err = 0;
    for (std::size_t i = 0; i < x.numel(); i++)
        err = std::max(err, std::fabs(back[i].toFloat() - x[i].toFloat()));
    EXPECT_LT(err, 1.5f);
    EXPECT_GT(err, 0.f);
}

TEST(MxFormat, Nvfp4FinerScalesBeatMxfp4)
{
    Rng rng(33);
    std::vector<float> x(256);
    for (auto& v : x)
        v = rng.normal(0.f, 1.f) * (1.f + 5.f * static_cast<float>(
                                              rng.uniform() < 0.1));
    double err_mx = 0, err_nv = 0;
    const MxVector mx = mxEncode(x, MxKind::MXFP4);
    const MxVector nv = mxEncode(x, MxKind::NVFP4);
    for (std::size_t i = 0; i < x.size(); i++) {
        err_mx += std::fabs(mx.valueAt(i) - x[i]);
        err_nv += std::fabs(nv.valueAt(i) - x[i]);
    }
    EXPECT_LE(err_nv, err_mx * 1.05);
}

// ------------------------------------------------------ repack baselines ----

TEST(Repack, MarlinRoundTrip)
{
    Rng rng(41);
    Tensor<std::uint8_t> codes({32, 128});
    for (std::size_t i = 0; i < codes.numel(); i++)
        codes[i] = static_cast<std::uint8_t>(rng.uniformInt(16));
    const auto words = marlinRepack(codes, 4);
    const Tensor<std::uint8_t> back = marlinUnpack(words, 4, 32, 128);
    for (std::size_t i = 0; i < codes.numel(); i++)
        EXPECT_EQ(back[i], codes[i]);
}

TEST(Repack, MarlinPermutesWithinTiles)
{
    Tensor<std::uint8_t> codes({16, 64});
    for (std::size_t i = 0; i < codes.numel(); i++)
        codes[i] = static_cast<std::uint8_t>(i % 16);
    const auto permuted = marlinRepack(codes, 4);
    const auto linear = packStream(
        std::vector<std::uint8_t>(codes.data(),
                                  codes.data() + codes.numel()),
        4, PackOrder::Linear);
    EXPECT_NE(permuted, linear);
}

TEST(Repack, TableIIOrdering)
{
    const auto& a100 = sim::archA100();
    const double marlin_p = quantPackLatencyMs(a100, RepackSystem::Marlin,
                                               true, 131072, 32, 128, 4);
    const double ladder_p = quantPackLatencyMs(a100, RepackSystem::Ladder,
                                               true, 131072, 32, 128, 4);
    const double bit_p = quantPackLatencyMs(a100, RepackSystem::BitDecoding,
                                            true, 131072, 32, 128, 4);
    EXPECT_GT(marlin_p, ladder_p);
    EXPECT_GT(ladder_p, bit_p);

    const double marlin_d = quantPackLatencyMs(a100, RepackSystem::Marlin,
                                               false, 131072, 32, 128, 4);
    const double bit_d = quantPackLatencyMs(a100, RepackSystem::BitDecoding,
                                            false, 131072, 32, 128, 4);
    EXPECT_GT(marlin_d, bit_d * 5.0);
}

} // namespace
} // namespace bitdec::quant
