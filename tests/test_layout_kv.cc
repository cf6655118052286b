/**
 * @file
 * Tests for layout induction (the paper's core claim) and the KV caches.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "core/residual_kernel.h"
#include "exec/simd/dispatch.h"
#include "kvcache/kv_cache.h"
#include "kvcache/paged_cache.h"
#include "layout/induced_layout.h"
#include "layout/tile.h"
#include "quant/int_quant.h"

namespace bitdec {
namespace {

using layout::InducedLayout;
using layout::residualBlockSize;
using layout::UnitId;
using layout::WarpTiling;

// ------------------------------------------------------------ Eq. 1 -------

TEST(Tile, ResidualBlockSizeEq1)
{
    WarpTiling t;
    t.wn = 4;
    EXPECT_EQ(residualBlockSize(t, 4), 8 * 4 * 4);  // Pn*Wn*R = 128
    EXPECT_EQ(residualBlockSize(t, 2), 8 * 4 * 8);  // 256
    t.wn = 2;
    EXPECT_EQ(residualBlockSize(t, 4), 64);
    t.wn = 1;
    EXPECT_EQ(residualBlockSize(t, 8), 16); // 8*1*2
}

TEST(Tile, WarpTilingExtents)
{
    WarpTiling t;
    EXPECT_EQ(t.pn(), 8);
    EXPECT_EQ(t.pk(), 16);
    EXPECT_EQ(t.pm(), 16);
    t.mma = sim::MmaShape::M16N8K8;
    EXPECT_EQ(t.pk(), 8);
    EXPECT_EQ(t.warps(), 4);
}

// ------------------------------------------------------ induced layout ----

struct LayoutParam
{
    int bits;
    int k_rows;
    int n_cols;
};

class InducedLayoutP : public ::testing::TestWithParam<LayoutParam>
{
  protected:
    WarpTiling tiling_;
};

TEST_P(InducedLayoutP, SlotsAreBijective)
{
    const auto [bits, k_rows, n_cols] = GetParam();
    const InducedLayout lay(tiling_, bits, k_rows, n_cols);
    std::set<std::size_t> slots;
    for (int kt = 0; kt < lay.numKTiles(); kt++)
        for (int ng = 0; ng < lay.numNGroups(); ng++)
            for (int lane = 0; lane < sim::kWarpSize; lane++)
                for (int pr = 0; pr < lay.pairsPerLane(); pr++)
                    slots.insert(lay.unitSlot({kt, ng, lane, pr}));
    EXPECT_EQ(slots.size(), lay.numUnits());
    EXPECT_EQ(*slots.rbegin(), lay.numUnits() - 1);
}

TEST_P(InducedLayoutP, CodeCoordsCoverTheMatrixOnce)
{
    const auto [bits, k_rows, n_cols] = GetParam();
    const InducedLayout lay(tiling_, bits, k_rows, n_cols);
    Tensor<int> hits({static_cast<std::size_t>(k_rows),
                      static_cast<std::size_t>(n_cols)});
    for (int kt = 0; kt < lay.numKTiles(); kt++) {
        for (int ng = 0; ng < lay.numNGroups(); ng++) {
            for (int lane = 0; lane < sim::kWarpSize; lane++) {
                for (int pr = 0; pr < lay.pairsPerLane(); pr++) {
                    for (int i = 0; i < lay.codesPerUnit(); i++) {
                        const auto c = lay.codeCoord({kt, ng, lane, pr}, i);
                        hits.at(static_cast<std::size_t>(c.row),
                                static_cast<std::size_t>(c.col))++;
                    }
                }
            }
        }
    }
    for (std::size_t i = 0; i < hits.numel(); i++)
        EXPECT_EQ(hits[i], 1);
}

TEST_P(InducedLayoutP, LocateInvertsCodeCoord)
{
    const auto [bits, k_rows, n_cols] = GetParam();
    const InducedLayout lay(tiling_, bits, k_rows, n_cols);
    Rng rng(51);
    for (int trial = 0; trial < 200; trial++) {
        const int row = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(k_rows)));
        const int col = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(n_cols)));
        UnitId id;
        int code;
        lay.locate(row, col, id, code);
        const auto c = lay.codeCoord(id, code);
        EXPECT_EQ(c.row, row);
        EXPECT_EQ(c.col, col);
    }
}

TEST_P(InducedLayoutP, PackUnpackIdentity)
{
    const auto [bits, k_rows, n_cols] = GetParam();
    const InducedLayout lay(tiling_, bits, k_rows, n_cols);
    Rng rng(52);
    Tensor<std::uint8_t> codes({static_cast<std::size_t>(k_rows),
                                static_cast<std::size_t>(n_cols)});
    for (std::size_t i = 0; i < codes.numel(); i++)
        codes[i] = static_cast<std::uint8_t>(rng.uniformInt(1u << bits));
    const auto units = packInduced(lay, codes);
    EXPECT_EQ(units.size(), lay.numUnits());
    const Tensor<std::uint8_t> back = unpackInduced(lay, units);
    for (std::size_t i = 0; i < codes.numel(); i++)
        EXPECT_EQ(back[i], codes[i]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InducedLayoutP,
    ::testing::Values(LayoutParam{4, 128, 128}, LayoutParam{4, 64, 256},
                      LayoutParam{2, 128, 256}, LayoutParam{2, 32, 64},
                      LayoutParam{4, 16, 32}));

TEST(InducedLayout, ContinuousPackingMisaligns)
{
    // Fig. 3b as a property: codes packed in naive row-major order, when
    // read back through the induced-layout reader, land at the wrong
    // coordinates.
    WarpTiling tiling;
    const InducedLayout lay(tiling, 4, 32, 32);
    Rng rng(53);
    Tensor<std::uint8_t> codes({32, 32});
    for (std::size_t i = 0; i < codes.numel(); i++)
        codes[i] = static_cast<std::uint8_t>(rng.uniformInt(16));
    const auto naive = layout::packContinuous(4, codes);
    ASSERT_EQ(naive.size(), lay.numUnits()); // same storage budget
    const Tensor<std::uint8_t> misread = unpackInduced(lay, naive);
    int mismatches = 0;
    for (std::size_t i = 0; i < codes.numel(); i++)
        mismatches += misread[i] != codes[i];
    EXPECT_GT(mismatches, static_cast<int>(codes.numel()) / 2);
}

TEST(InducedLayout, RejectsMisalignedShapes)
{
    WarpTiling tiling;
    EXPECT_DEATH(InducedLayout(tiling, 4, 100, 128), "multiple");
    EXPECT_DEATH(InducedLayout(tiling, 4, 128, 100), "multiple");
}

// -------------------------------------------------- fp16 / packed caches ----

TEST(Fp16Cache, AppendAndGrow)
{
    kv::Fp16HeadCache cache(8);
    for (int t = 0; t < 200; t++) {
        std::vector<Half> k(8, Half(static_cast<float>(t)));
        std::vector<Half> v(8, Half(static_cast<float>(-t)));
        cache.append(k, v);
    }
    EXPECT_EQ(cache.length(), 200);
    EXPECT_EQ(cache.keys().at(150, 0).toFloat(), 150.0f);
    EXPECT_EQ(cache.values().at(199, 7).toFloat(), -199.0f);
    EXPECT_EQ(cache.deviceBytes(), 2.0 * 200 * 8 * 2);
}

class PackedCacheP
    : public ::testing::TestWithParam<std::pair<int, quant::Granularity>>
{
};

TEST_P(PackedCacheP, PartitionInvariants)
{
    const auto [bits, gran] = GetParam();
    quant::QuantConfig qc;
    qc.bits = bits;
    qc.key_granularity = gran;
    qc.group_size = 32;
    WarpTiling tiling;
    kv::PackedHeadCache cache(64, qc, tiling);
    const int nr = cache.residualBlockSize();
    EXPECT_EQ(nr, residualBlockSize(tiling, bits));

    Rng rng(61);
    const int total = nr * 2 + nr / 2; // two full blocks and a tail
    for (int t = 0; t < total; t++) {
        std::vector<Half> k(64), v(64);
        for (int d = 0; d < 64; d++) {
            k[static_cast<std::size_t>(d)] = Half(rng.normal());
            v[static_cast<std::size_t>(d)] = Half(rng.normal());
        }
        cache.append(k, v);
        // Invariant: len = packed + residual, residual < Nr.
        EXPECT_EQ(cache.length(), t + 1);
        EXPECT_LT(cache.residualLength(), nr);
        EXPECT_EQ(cache.packedTokens() % nr, 0);
    }
    EXPECT_EQ(cache.packedTokens(), nr * 2);
    EXPECT_EQ(cache.residualLength(), nr / 2);
    EXPECT_EQ(cache.keyBlocks().size(), 2u);
}

TEST_P(PackedCacheP, DequantizeAllWithinQuantBound)
{
    const auto [bits, gran] = GetParam();
    quant::QuantConfig qc;
    qc.bits = bits;
    qc.key_granularity = gran;
    qc.group_size = 32;
    WarpTiling tiling;
    kv::PackedHeadCache cache(64, qc, tiling);
    const int nr = cache.residualBlockSize();

    Rng rng(62);
    Tensor<Half> k({static_cast<std::size_t>(nr + 16), 64});
    Tensor<Half> v({static_cast<std::size_t>(nr + 16), 64});
    for (std::size_t i = 0; i < k.numel(); i++) {
        k[i] = Half(rng.normal());
        v[i] = Half(rng.normal());
    }
    cache.prefill(k, v);

    Tensor<Half> kd, vd;
    cache.dequantizeAll(kd, vd);
    ASSERT_EQ(kd.dim(0), k.dim(0));
    const float step = 9.0f / static_cast<float>((1 << bits) - 1);
    for (std::size_t t = 0; t < k.dim(0); t++) {
        for (std::size_t d = 0; d < 64; d++) {
            EXPECT_NEAR(kd.at(t, d).toFloat(), k.at(t, d).toFloat(), step);
            EXPECT_NEAR(vd.at(t, d).toFloat(), v.at(t, d).toFloat(), step);
        }
    }
    // Residual rows are stored losslessly.
    for (std::size_t t = static_cast<std::size_t>(nr); t < k.dim(0); t++)
        for (std::size_t d = 0; d < 64; d++)
            EXPECT_EQ(kd.at(t, d).bits(), k.at(t, d).bits());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedCacheP,
    ::testing::Values(std::pair{4, quant::Granularity::ChannelWise},
                      std::pair{4, quant::Granularity::TensorWise},
                      std::pair{2, quant::Granularity::ChannelWise},
                      std::pair{2, quant::Granularity::TensorWise}));

TEST(PackedCache, MemorySmallerThanFp16)
{
    quant::QuantConfig qc;
    qc.bits = 4;
    qc.group_size = 32;
    WarpTiling tiling;
    kv::PackedHeadCache packed(128, qc, tiling);
    kv::Fp16HeadCache fp16(128);
    Rng rng(63);
    for (int t = 0; t < 1024; t++) {
        std::vector<Half> k(128), v(128);
        for (int d = 0; d < 128; d++) {
            k[static_cast<std::size_t>(d)] = Half(rng.normal());
            v[static_cast<std::size_t>(d)] = Half(rng.normal());
        }
        packed.append(k, v);
        fp16.append(k, v);
    }
    EXPECT_LT(packed.deviceBytes(), fp16.deviceBytes() * 0.5);
    EXPECT_GT(packed.metadataBytes(), 0.0);
}

TEST(PackedCache, HostBytesPerTokenStayLowBit)
{
    // What a packed token costs in host memory, every heap buffer the
    // cache owns counted: the marginal bytes between N and 2N tokens,
    // per token, against FP16 K and V. KC-4 with group 32 holds
    // 0.5 B/element of codes plus 4 B per 32-element group, 0.3125x
    // FP16; any per-block table riding along would push it past 0.35x.
    quant::QuantConfig qc;
    qc.bits = 4;
    qc.group_size = 32;
    const int d = 128;
    kv::PackedHeadCache cache(d, qc, WarpTiling{});
    const int n = 16 * cache.residualBlockSize();
    Rng rng(64);
    Tensor<Half> k({static_cast<std::size_t>(n), static_cast<std::size_t>(d)});
    Tensor<Half> v({static_cast<std::size_t>(n), static_cast<std::size_t>(d)});
    for (std::size_t i = 0; i < k.numel(); i++) {
        k[i] = Half(rng.normal());
        v[i] = Half(rng.normal());
    }
    cache.prefill(k, v);
    const double at_n = static_cast<double>(cache.hostBytes());
    cache.prefill(k, v);
    ASSERT_EQ(cache.packedTokens(), 2 * n);
    const double per_token =
        (static_cast<double>(cache.hostBytes()) - at_n) / n;
    const double fp16_per_token = 2.0 * d * sizeof(Half);
    EXPECT_LE(per_token, 0.35 * fp16_per_token);
    EXPECT_GE(per_token, 0.3125 * fp16_per_token);
}

// -------------------------------------------- residual kernel induction ----

/** The table this host packs with (BITDEC_SIMD caps it). */
const exec::simd::KernelTable&
packKernels()
{
    return exec::simd::requireKernels(exec::simd::enabledLevelCap());
}

TEST(ResidualKernel, WarpPackMatchesCanonicalPackBytesKC4)
{
    // THE layout-induction theorem, executable: per-lane fragment packing
    // produces byte-identical units to the canonical induced pack.
    quant::QuantConfig qc;
    qc.bits = 4;
    qc.key_granularity = quant::Granularity::ChannelWise;
    qc.group_size = 32;
    WarpTiling tiling;
    const int nr = residualBlockSize(tiling, qc.bits);
    const int d = 64;
    layout::InducedLayout klay(tiling, qc.bits, d, nr);
    layout::InducedLayout vlay(tiling, qc.bits, nr, d);

    Rng rng(71);
    Tensor<Half> kb({static_cast<std::size_t>(nr), static_cast<std::size_t>(d)});
    Tensor<Half> vb({static_cast<std::size_t>(nr), static_cast<std::size_t>(d)});
    for (std::size_t i = 0; i < kb.numel(); i++) {
        kb[i] = Half(rng.normal());
        vb[i] = Half(rng.normal());
    }

    const kv::PackedHeadCache cache(d, qc, tiling);
    kv::PackedBlock canon_k, canon_v;
    kv::packBlock(packKernels(), cache, kb.data(), vb.data(), canon_k,
                  canon_v);

    const kv::PackedBlock warp_k =
        core::residualKernelPackKeys(kb, qc, klay);
    const kv::PackedBlock warp_v =
        core::residualKernelPackValues(vb, qc, vlay);

    ASSERT_EQ(warp_k.units.size(), canon_k.units.size());
    EXPECT_EQ(warp_k.units, canon_k.units);
    EXPECT_EQ(warp_v.units, canon_v.units);
    for (std::size_t i = 0; i < canon_k.params.numel(); i++)
        EXPECT_EQ(warp_k.params[i].toWord(), canon_k.params[i].toWord());
}

TEST(ResidualKernel, WarpPackMatchesCanonicalPackBytesKT2)
{
    quant::QuantConfig qc;
    qc.bits = 2;
    qc.key_granularity = quant::Granularity::TensorWise;
    qc.group_size = 32;
    WarpTiling tiling;
    const int nr = residualBlockSize(tiling, qc.bits);
    const int d = 64;
    layout::InducedLayout klay(tiling, qc.bits, d, nr);
    layout::InducedLayout vlay(tiling, qc.bits, nr, d);

    Rng rng(72);
    Tensor<Half> kb({static_cast<std::size_t>(nr), static_cast<std::size_t>(d)});
    Tensor<Half> vb({static_cast<std::size_t>(nr), static_cast<std::size_t>(d)});
    for (std::size_t i = 0; i < kb.numel(); i++) {
        kb[i] = Half(rng.normal());
        vb[i] = Half(rng.normal());
    }
    const kv::PackedHeadCache cache(d, qc, tiling);
    kv::PackedBlock canon_k, canon_v;
    kv::packBlock(packKernels(), cache, kb.data(), vb.data(), canon_k,
                  canon_v);
    EXPECT_EQ(core::residualKernelPackKeys(kb, qc, klay).units,
              canon_k.units);
    EXPECT_EQ(core::residualKernelPackValues(vb, qc, vlay).units,
              canon_v.units);
}

TEST(ResidualKernel, WarpMinMaxMatchesDirect)
{
    sim::WarpVar<float> mn{}, mx{};
    Rng rng(73);
    for (int lane = 0; lane < sim::kWarpSize; lane++) {
        mn[static_cast<std::size_t>(lane)] = rng.normal();
        mx[static_cast<std::size_t>(lane)] =
            mn[static_cast<std::size_t>(lane)];
    }
    sim::WarpVar<float> rmin{}, rmax{};
    core::warpGroupMinMax(mn, mx, {4, 8, 16}, rmin, rmax);
    // Masks {4, 8, 16} reduce across the ldmatrix column groups: lanes
    // sharing (lane % 4) end with the group's min/max.
    for (int t = 0; t < 4; t++) {
        float want_min = 1e30f, want_max = -1e30f;
        for (int g = 0; g < 8; g++) {
            want_min = std::min(want_min,
                                mn[static_cast<std::size_t>(g * 4 + t)]);
            want_max = std::max(want_max,
                                mx[static_cast<std::size_t>(g * 4 + t)]);
        }
        for (int g = 0; g < 8; g++) {
            EXPECT_EQ(rmin[static_cast<std::size_t>(g * 4 + t)], want_min);
            EXPECT_EQ(rmax[static_cast<std::size_t>(g * 4 + t)], want_max);
        }
    }
}

// -------------------------------------------------------------- paging ----

TEST(PageAllocator, AllocateReleaseCycle)
{
    kv::PageAllocator alloc(4);
    EXPECT_EQ(alloc.freePages(), 4);
    const auto p0 = alloc.allocate();
    ASSERT_TRUE(p0.has_value());
    EXPECT_EQ(alloc.freePages(), 3);
    alloc.release(*p0);
    EXPECT_EQ(alloc.freePages(), 4);
}

TEST(PageAllocator, ExhaustionReturnsNullopt)
{
    kv::PageAllocator alloc(2);
    EXPECT_TRUE(alloc.allocate().has_value());
    EXPECT_TRUE(alloc.allocate().has_value());
    EXPECT_FALSE(alloc.allocate().has_value());
}

TEST(PageAllocator, DoubleFreePanics)
{
    kv::PageAllocator alloc(2);
    const auto p = alloc.allocate();
    alloc.release(*p);
    EXPECT_DEATH(alloc.release(*p), "double free");
}

TEST(PagedCache, GatherReconstructsSequences)
{
    kv::PagedHeadCache cache(8, 4, 16); // d=8, 4 tokens/page, 16 pages
    const int s0 = cache.addSequence();
    const int s1 = cache.addSequence();
    for (int t = 0; t < 10; t++) {
        std::vector<Half> k(8, Half(static_cast<float>(t)));
        std::vector<Half> v(8, Half(static_cast<float>(t) * 2));
        ASSERT_TRUE(cache.append(s0, k, v));
        if (t < 5) {
            std::vector<Half> k1(8, Half(static_cast<float>(100 + t)));
            ASSERT_TRUE(cache.append(s1, k1, v));
        }
    }
    EXPECT_EQ(cache.length(s0), 10);
    EXPECT_EQ(cache.length(s1), 5);
    EXPECT_EQ(cache.pageTable(s0).size(), 3u); // ceil(10/4)
    const Tensor<Half> k0 = cache.gatherKeys(s0);
    for (int t = 0; t < 10; t++)
        EXPECT_EQ(k0.at(static_cast<std::size_t>(t), 0).toFloat(),
                  static_cast<float>(t));
    const Tensor<Half> k1 = cache.gatherKeys(s1);
    EXPECT_EQ(k1.at(4, 0).toFloat(), 104.0f);
}

TEST(PagedCache, OomWhenPoolExhausted)
{
    kv::PagedHeadCache cache(4, 2, 2); // only 4 tokens total
    const int s = cache.addSequence();
    std::vector<Half> k(4), v(4);
    EXPECT_TRUE(cache.append(s, k, v));
    EXPECT_TRUE(cache.append(s, k, v));
    EXPECT_TRUE(cache.append(s, k, v));
    EXPECT_TRUE(cache.append(s, k, v));
    EXPECT_FALSE(cache.append(s, k, v)); // fifth token needs a third page
}

TEST(PagedCache, RemoveSequenceRecyclesPages)
{
    kv::PagedHeadCache cache(4, 2, 2);
    const int s = cache.addSequence();
    std::vector<Half> k(4), v(4);
    cache.append(s, k, v);
    cache.append(s, k, v);
    cache.append(s, k, v);
    EXPECT_EQ(cache.freePages(), 0);
    cache.removeSequence(s);
    EXPECT_EQ(cache.freePages(), 2);
    const int s2 = cache.addSequence();
    EXPECT_EQ(s2, s); // slot reuse
    EXPECT_TRUE(cache.append(s2, k, v));
}

} // namespace
} // namespace bitdec
