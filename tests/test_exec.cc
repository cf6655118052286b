/**
 * @file
 * Tests for the CPU execution backend: the Half conversion LUT and bulk
 * span helpers, the work-stealing thread pool, dequant routing, and —
 * most importantly — fused-vs-reference parity of the hot-path attention
 * kernels plus bitwise thread-count determinism.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "attention/flash_decoding.h"
#include "attention/reference.h"
#include "common/rng.h"
#include "core/bitdecoding.h"
#include "core/packing_kernel.h"
#include "exec/dequant_plan.h"
#include "exec/fused_attention.h"
#include "exec/thread_pool.h"
#include "gpusim/arch.h"
#include "model/decode_sim.h"
#include "model/model_config.h"
#include "serving/engine.h"
#include "serving/trace.h"

namespace bitdec {
namespace {

void
randomize(Tensor<Half>& t, Rng& rng, float lo = -1.0f, float hi = 1.0f)
{
    for (std::size_t i = 0; i < t.numel(); i++)
        t[i] = Half(rng.uniformRange(lo, hi));
}

// ------------------------------------------------------------- half LUT ----

// Half::toFloat() itself resolves through the LUT, so comparing against it
// would be a tautology; these checks are independent of the table.
TEST(HalfLut, AllFinitePatternsRoundTripThroughFloatToHalfBits)
{
    // binary16 -> float is exact, so converting the table value back with
    // the (independent, bit-level) narrowing conversion must reproduce the
    // original bit pattern — for every non-NaN pattern including
    // subnormals, infinities and signed zeros.
    const float* lut = halfToFloatLut();
    for (std::uint32_t b = 0; b < 65536; b++) {
        const Half h = Half::fromBits(static_cast<std::uint16_t>(b));
        if (h.isNan()) {
            EXPECT_TRUE(std::isnan(lut[b])) << "bits=" << b;
            continue;
        }
        EXPECT_EQ(floatToHalfBits(lut[b]), static_cast<std::uint16_t>(b))
            << "bits=" << b;
    }
}

TEST(HalfLut, KnownValues)
{
    const float* lut = halfToFloatLut();
    EXPECT_EQ(lut[0x0000], 0.0f);
    EXPECT_TRUE(std::signbit(lut[0x8000]));
    EXPECT_EQ(lut[0x3C00], 1.0f);
    EXPECT_EQ(lut[0xC000], -2.0f);
    EXPECT_EQ(lut[0x7BFF], 65504.0f);          // max finite
    EXPECT_EQ(lut[0x0001], std::ldexp(1.0f, -24)); // smallest subnormal
    EXPECT_EQ(lut[0x0400], std::ldexp(1.0f, -14)); // smallest normal
    EXPECT_TRUE(std::isinf(lut[0x7C00]) && lut[0x7C00] > 0);
    EXPECT_TRUE(std::isinf(lut[0xFC00]) && lut[0xFC00] < 0);
}

TEST(HalfLut, BulkConversionsRoundTrip)
{
    Rng rng(7);
    std::vector<Half> src(1000);
    for (auto& h : src)
        h = Half(rng.uniformRange(-100.f, 100.f));
    std::vector<float> mid(src.size());
    std::vector<Half> back(src.size());
    toFloat(src.data(), mid.data(), src.size());
    fromFloat(mid.data(), back.data(), src.size());
    for (std::size_t i = 0; i < src.size(); i++) {
        EXPECT_EQ(mid[i], src[i].toFloat());
        // Half -> float is exact, so the round trip is the identity.
        EXPECT_EQ(back[i].bits(), src[i].bits());
    }
}

TEST(HalfLut, RoundToHalfMatchesHalfConstruction)
{
    Rng rng(8);
    for (int i = 0; i < 1000; i++) {
        const float x = rng.uniformRange(-1000.f, 1000.f);
        EXPECT_EQ(roundToHalf(x), Half(x).toFloat());
    }
}

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    exec::ThreadPool pool(4);
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; i++)
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST(ThreadPool, SizeOneRunsInline)
{
    exec::ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 1);
    std::vector<int> order;
    pool.parallelFor(5, [&](std::size_t i) {
        order.push_back(static_cast<int>(i)); // safe: inline execution
    });
    ASSERT_EQ(order.size(), 5u);
    for (int i = 0; i < 5; i++)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolDeathTest, NestedParallelForOnSamePoolPanics)
{
    // Nested use of one pool would deadlock; the guard turns it into a
    // loud panic instead.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            exec::ThreadPool pool(2);
            pool.parallelFor(4, [&](std::size_t) {
                pool.parallelFor(2, [](std::size_t) {});
            });
        },
        "nested parallelFor");
}

TEST(ThreadPool, ReusableAcrossManyParallelFors)
{
    exec::ThreadPool pool(3);
    std::atomic<long> sum{0};
    for (int round = 0; round < 50; round++)
        pool.parallelFor(64, [&](std::size_t i) {
            sum.fetch_add(static_cast<long>(i));
        });
    EXPECT_EQ(sum.load(), 50l * (64 * 63 / 2));
}

// -------------------------------------------------------- dequant plan -----

TEST(DequantPlan, BlockDequantMatchesReferenceBitExactly)
{
    for (int bits : {2, 4}) {
        for (auto gran : {quant::Granularity::ChannelWise,
                          quant::Granularity::TensorWise}) {
            quant::QuantConfig qc;
            qc.bits = bits;
            qc.key_granularity = gran;
            layout::WarpTiling tiling;
            const int d = 64;
            kv::PackedHeadCache cache(d, qc, tiling);
            const int nr = cache.residualBlockSize();

            Rng rng(1234 + bits);
            Tensor<Half> k({static_cast<std::size_t>(2 * nr),
                            static_cast<std::size_t>(d)});
            Tensor<Half> v({static_cast<std::size_t>(2 * nr),
                            static_cast<std::size_t>(d)});
            randomize(k, rng);
            randomize(v, rng);
            cache.prefill(k, v);
            ASSERT_EQ(static_cast<int>(cache.keyBlocks().size()), 2);

            // The reference inverse of the whole cache.
            Tensor<Half> kd, vd;
            cache.dequantizeAll(kd, vd);

            // The fused path's word-level dequant of each block.
            std::vector<float> kt(static_cast<std::size_t>(nr * d));
            std::vector<float> vt(static_cast<std::size_t>(nr * d));
            for (int blk = 0; blk < 2; blk++) {
                const auto& kb =
                    cache.keyBlocks()[static_cast<std::size_t>(blk)];
                const auto& vb =
                    cache.valueBlocks()[static_cast<std::size_t>(blk)];
                exec::dequantBlock(kb.units, cache.keyRoutes(), kb.params,
                                   bits, kt.data());
                exec::dequantBlock(vb.units, cache.valueRoutes(), vb.params,
                                   bits, vt.data());
                for (int t = 0; t < nr; t++) {
                    const std::size_t tok =
                        static_cast<std::size_t>(blk * nr + t);
                    for (int c = 0; c < d; c++) {
                        EXPECT_EQ(kt[static_cast<std::size_t>(t * d + c)],
                                  kd.at(tok, static_cast<std::size_t>(c))
                                      .toFloat())
                            << "K blk=" << blk << " t=" << t << " c=" << c;
                        EXPECT_EQ(vt[static_cast<std::size_t>(t * d + c)],
                                  vd.at(tok, static_cast<std::size_t>(c))
                                      .toFloat())
                            << "V blk=" << blk << " t=" << t << " c=" << c;
                    }
                }
            }
        }
    }
}

// --------------------------------------------- fused packed attention ------

struct FusedCase
{
    int bits;
    quant::Granularity gran;
    int wn;
    int extra; //!< residual fill beyond full blocks
    int gq;
};

class FusedPackedP : public ::testing::TestWithParam<FusedCase>
{
};

TEST_P(FusedPackedP, MatchesEmulatedKernelAndReference)
{
    const auto [bits, gran, wn, extra, gq] = GetParam();
    core::BitDecodingConfig cfg;
    cfg.quant.bits = bits;
    cfg.quant.key_granularity = gran;
    cfg.tiling.wn = wn;

    const int d = 64;
    core::HeadDecoder dec(d, cfg);
    const int nr = dec.cache().residualBlockSize();
    const int len = 6 * nr + extra; // > 1 chunk of 4 blocks

    Rng rng(4000 + bits + wn + extra + gq);
    Tensor<Half> k({static_cast<std::size_t>(len), static_cast<std::size_t>(d)});
    Tensor<Half> v({static_cast<std::size_t>(len), static_cast<std::size_t>(d)});
    randomize(k, rng);
    randomize(v, rng);
    dec.prefill(k, v);

    Tensor<Half> q({static_cast<std::size_t>(gq), static_cast<std::size_t>(d)});
    randomize(q, rng);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));

    const Tensor<float> fused =
        core::fusedPackedAttention(q, dec.cache(), scale);

    // Parity with the warp/register-emulated Packing Kernel.
    const core::PackingKernelResult emu = dec.decodeStep(q, scale);
    ASSERT_TRUE(emu.valid);
    for (int g = 0; g < gq; g++)
        for (int c = 0; c < d; c++)
            EXPECT_NEAR(fused.at(static_cast<std::size_t>(g),
                                 static_cast<std::size_t>(c)),
                        emu.out.at(static_cast<std::size_t>(g),
                                   static_cast<std::size_t>(c)),
                        1e-3f)
                << "emu g=" << g << " c=" << c;

    // Parity with the FP32 reference over the dequantized cache.
    Tensor<Half> kd, vd;
    dec.cache().dequantizeAll(kd, vd);
    const Tensor<float> ref = attn::referenceAttention(q, kd, vd, scale);
    for (int g = 0; g < gq; g++)
        for (int c = 0; c < d; c++)
            EXPECT_NEAR(fused.at(static_cast<std::size_t>(g),
                                 static_cast<std::size_t>(c)),
                        ref.at(static_cast<std::size_t>(g),
                               static_cast<std::size_t>(c)),
                        1e-3f)
                << "ref g=" << g << " c=" << c;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FusedPackedP,
    ::testing::Values(
        FusedCase{4, quant::Granularity::ChannelWise, 4, 0, 8},
        FusedCase{4, quant::Granularity::ChannelWise, 4, 37, 16},
        FusedCase{4, quant::Granularity::TensorWise, 4, 5, 1},
        FusedCase{4, quant::Granularity::ChannelWise, 2, 11, 8},
        FusedCase{2, quant::Granularity::ChannelWise, 4, 0, 16},
        FusedCase{2, quant::Granularity::TensorWise, 4, 63, 4},
        FusedCase{2, quant::Granularity::TensorWise, 2, 1, 8}));

TEST(FusedPacked, BitwiseIdenticalForAnyThreadCount)
{
    core::BitDecodingConfig cfg;
    const int d = 64;
    core::HeadDecoder dec(d, cfg);
    const int nr = dec.cache().residualBlockSize();
    const int len = 9 * nr + 21;

    Rng rng(77);
    Tensor<Half> k({static_cast<std::size_t>(len), static_cast<std::size_t>(d)});
    Tensor<Half> v({static_cast<std::size_t>(len), static_cast<std::size_t>(d)});
    randomize(k, rng);
    randomize(v, rng);
    dec.prefill(k, v);
    Tensor<Half> q({8, static_cast<std::size_t>(d)});
    randomize(q, rng);

    exec::ThreadPool pool1(1);
    exec::ThreadPool pool8(8);
    const Tensor<float> serial =
        core::fusedPackedAttention(q, dec.cache(), 0.125f, nullptr);
    const Tensor<float> one =
        core::fusedPackedAttention(q, dec.cache(), 0.125f, &pool1);
    const Tensor<float> eight =
        core::fusedPackedAttention(q, dec.cache(), 0.125f, &pool8);
    for (std::size_t i = 0; i < serial.numel(); i++) {
        EXPECT_EQ(serial[i], one[i]);
        EXPECT_EQ(serial[i], eight[i]);
    }
}

TEST(FusedPacked, EmptyAndResidualOnlyCaches)
{
    core::BitDecodingConfig cfg;
    const int d = 64;
    core::HeadDecoder dec(d, cfg);
    Tensor<Half> q({4, static_cast<std::size_t>(d)});
    Rng rng(5);
    randomize(q, rng);

    // Empty cache: all-zero output.
    const Tensor<float> empty =
        core::fusedPackedAttention(q, dec.cache(), 0.125f);
    for (std::size_t i = 0; i < empty.numel(); i++)
        EXPECT_EQ(empty[i], 0.f);

    // Residual-only (no packed block yet): matches the FP16 reference.
    Tensor<Half> k({40, static_cast<std::size_t>(d)});
    Tensor<Half> v({40, static_cast<std::size_t>(d)});
    randomize(k, rng);
    randomize(v, rng);
    dec.prefill(k, v);
    ASSERT_EQ(dec.cache().packedTokens(), 0);
    const Tensor<float> got =
        core::fusedPackedAttention(q, dec.cache(), 0.125f);
    const Tensor<float> want = attn::referenceAttention(q, k, v, 0.125f);
    EXPECT_LT(attn::maxAbsDiff(got, want), 1e-3f);
}

// ----------------------------------------------- fused paged attention -----

TEST(FusedPaged, MatchesReferenceOverGatheredSequence)
{
    const int d = 32;
    kv::PagedHeadCache cache(d, 16, 64);
    Rng rng(99);

    // Two interleaved sequences so pages are non-contiguous per sequence.
    const int s0 = cache.addSequence();
    const int s1 = cache.addSequence();
    auto push = [&](int seq) {
        std::vector<Half> kr(static_cast<std::size_t>(d));
        std::vector<Half> vr(static_cast<std::size_t>(d));
        for (int i = 0; i < d; i++) {
            kr[static_cast<std::size_t>(i)] = Half(rng.uniformRange(-1, 1));
            vr[static_cast<std::size_t>(i)] = Half(rng.uniformRange(-1, 1));
        }
        ASSERT_TRUE(cache.append(seq, kr, vr));
    };
    for (int t = 0; t < 117; t++) { // partial last page for s0
        push(s0);
        if (t % 2 == 0)
            push(s1);
    }

    Tensor<Half> q({4, static_cast<std::size_t>(d)});
    randomize(q, rng);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));

    for (int seq : {s0, s1}) {
        const Tensor<float> fused =
            exec::fusedPagedAttention(q, cache, seq, scale);
        const Tensor<float> ref = attn::referenceAttention(
            q, cache.gatherKeys(seq), cache.gatherValues(seq), scale);
        EXPECT_LT(attn::maxAbsDiff(fused, ref), 1e-3f) << "seq=" << seq;

        exec::ThreadPool pool8(8);
        const Tensor<float> par =
            exec::fusedPagedAttention(q, cache, seq, scale, &pool8);
        for (std::size_t i = 0; i < fused.numel(); i++)
            EXPECT_EQ(fused[i], par[i]);
    }
}

TEST(FusedPaged, EmptySequenceYieldsZeros)
{
    kv::PagedHeadCache cache(8, 16, 4);
    const int s = cache.addSequence();
    Tensor<Half> q({2, 8});
    q.fill(Half(0.5f));
    const Tensor<float> out = exec::fusedPagedAttention(q, cache, s, 0.35f);
    ASSERT_EQ(out.dim(0), 2u);
    for (std::size_t i = 0; i < out.numel(); i++)
        EXPECT_EQ(out[i], 0.f);
}

// ------------------------------------------------ fused fp16 attention -----

TEST(FusedFp16, MatchesFlashDecoding)
{
    const int d = 64;
    kv::Fp16HeadCache cache(d);
    Rng rng(123);
    for (int t = 0; t < 300; t++) {
        std::vector<Half> kr(static_cast<std::size_t>(d));
        std::vector<Half> vr(static_cast<std::size_t>(d));
        for (int i = 0; i < d; i++) {
            kr[static_cast<std::size_t>(i)] = Half(rng.uniformRange(-1, 1));
            vr[static_cast<std::size_t>(i)] = Half(rng.uniformRange(-1, 1));
        }
        cache.append(kr, vr);
    }
    Tensor<Half> q({8, static_cast<std::size_t>(d)});
    randomize(q, rng);
    const float scale = 0.125f;

    const Tensor<float> fused = exec::fusedFp16Attention(q, cache, scale);
    // keys()/values() include capacity padding rows, so the comparison
    // baseline is flashDecodingAttention, which respects length().
    const Tensor<float> flash = attn::flashDecodingAttention(q, cache, scale, 4);
    EXPECT_LT(attn::maxAbsDiff(fused, flash), 1e-3f);

    // Row-parallel flash decoding is bitwise identical to serial.
    exec::ThreadPool pool8(8);
    const Tensor<float> flash_par =
        attn::flashDecodingAttention(q, cache, scale, 4, &pool8);
    for (std::size_t i = 0; i < flash.numel(); i++)
        EXPECT_EQ(flash[i], flash_par[i]);
}

// ------------------------------------------------- batched fused decode ----

TEST(BatchedFusedDecode, MatchesPerItemAndIsThreadCountInvariant)
{
    core::BitDecodingConfig cfg;
    const int d = 64;
    Rng rng(321);
    std::vector<std::unique_ptr<core::HeadDecoder>> decoders;
    std::vector<Tensor<Half>> queries;
    for (int i = 0; i < 6; i++) {
        auto dec = std::make_unique<core::HeadDecoder>(d, cfg);
        const int len = 100 + 60 * i;
        Tensor<Half> k({static_cast<std::size_t>(len),
                        static_cast<std::size_t>(d)});
        Tensor<Half> v({static_cast<std::size_t>(len),
                        static_cast<std::size_t>(d)});
        randomize(k, rng);
        randomize(v, rng);
        dec->prefill(k, v);
        decoders.push_back(std::move(dec));
        Tensor<Half> q({4, static_cast<std::size_t>(d)});
        randomize(q, rng);
        queries.push_back(std::move(q));
    }

    std::vector<model::FusedDecodeItem> items;
    for (int i = 0; i < 6; i++)
        items.push_back({&queries[static_cast<std::size_t>(i)],
                         &decoders[static_cast<std::size_t>(i)]->cache()});

    exec::ThreadPool pool8(8);
    const auto serial = model::batchedFusedDecode(items, 0.125f, nullptr);
    const auto parallel = model::batchedFusedDecode(items, 0.125f, &pool8);
    ASSERT_EQ(serial.size(), items.size());
    for (std::size_t i = 0; i < items.size(); i++) {
        const Tensor<float> direct = core::fusedPackedAttention(
            *items[i].q, *items[i].cache, 0.125f);
        for (std::size_t e = 0; e < direct.numel(); e++) {
            EXPECT_EQ(serial[i][e], direct[e]);
            EXPECT_EQ(parallel[i][e], direct[e]);
        }
    }
}

// ------------------------------------------- engine functional attention ---

TEST(EngineFunctionalAttention, DigestsAreThreadCountInvariant)
{
    const sim::GpuArch& arch = sim::archA100();
    const model::ModelConfig& model = model::llama31_8b();

    auto runWith = [&](exec::ThreadPool* pool) {
        serving::EngineConfig cfg;
        cfg.num_pages = 64;
        cfg.page_size = 16;
        cfg.backend = "fused-paged";
        cfg.pool = pool;
        cfg.sched.max_batch = 4;
        serving::TraceConfig tc;
        tc.num_requests = 8;
        tc.arrival_rate_qps = 100.0;
        tc.prompt_median = 30;
        tc.prompt_max = 64;
        tc.output_median = 10;
        tc.output_max = 16;
        std::vector<serving::Request> reqs = serving::generateTrace(tc);
        serving::Engine engine(arch, model, cfg);
        engine.run(reqs);
        std::vector<std::uint64_t> hashes;
        for (const auto& r : reqs) {
            EXPECT_NE(r.attn_hash, 0u) << "request " << r.id;
            hashes.push_back(r.attn_hash);
        }
        return hashes;
    };

    exec::ThreadPool pool8(8);
    const auto serial = runWith(nullptr);
    const auto parallel = runWith(&pool8);
    EXPECT_EQ(serial, parallel);
}

} // namespace
} // namespace bitdec
