/**
 * @file
 * Unified AttentionBackend API tests: registry listing/self-registration,
 * fail-fast resolution (unknown names, duplicate registration, capability
 * mismatches), the cross-backend digest parity sweep, and the engine's
 * backend-by-name configuration.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "attention/reference.h"
#include "backend/harness.h"
#include "backend/registry.h"
#include "exec/fused_attention.h"
#include "exec/simd/dispatch.h"
#include "exec/thread_pool.h"
#include "gpusim/arch.h"
#include "model/model_config.h"
#include "serving/engine.h"
#include "serving/trace.h"

namespace bitdec {
namespace {

using backend::AttentionBackend;
using backend::BackendRegistry;
using backend::CacheKind;
using backend::DecodeBatch;
using backend::DecodeFixture;
using backend::FixtureConfig;
using backend::QuantFormat;
using backend::ResolveQuery;

// --------------------------------------------------------- registry -----

TEST(BackendRegistry, ListsEveryBuiltinSorted)
{
    // names() lists every registered backend — SIMD siblings register
    // unconditionally (availability is a separate, host-dependent axis).
    const std::vector<std::string> names = BackendRegistry::instance().names();
    const std::vector<std::string> want = {
        "flash",
        "fused-fp16",
        "fused-fp16-avx2",
        "fused-fp16-avx512",
        "fused-packed",
        "fused-packed-avx2",
        "fused-packed-avx512",
        "fused-paged",
        "fused-paged-avx2",
        "fused-paged-avx512",
        "kivi",
        "mx",
        "qserve",
        "reference"};
    EXPECT_EQ(names, want);

    // fusedNames() is the CI perf-gate set: the scalar hot paths always,
    // plus exactly the SIMD siblings this host can execute.
    std::vector<std::string> want_fused;
    for (const char* base : {"fused-fp16", "fused-packed", "fused-paged"}) {
        want_fused.push_back(base);
        if (exec::simd::levelEnabled(exec::simd::Level::Avx2))
            want_fused.push_back(std::string(base) + "-avx2");
        if (exec::simd::levelEnabled(exec::simd::Level::Avx512))
            want_fused.push_back(std::string(base) + "-avx512");
    }
    EXPECT_EQ(BackendRegistry::instance().fusedNames(), want_fused);
}

TEST(BackendRegistry, AvailableNamesHideUnsupportedSimdSiblings)
{
    auto& reg = BackendRegistry::instance();
    for (const std::string& name : reg.availableNames()) {
        const AttentionBackend* be = reg.find(name);
        ASSERT_NE(be, nullptr) << name;
        EXPECT_TRUE(be->available()) << name;
        EXPECT_TRUE(be->unavailableReason().empty()) << name;
    }
    // Every name missing from availableNames() must explain itself.
    const std::vector<std::string> avail = reg.availableNames();
    for (const std::string& name : reg.names()) {
        if (std::find(avail.begin(), avail.end(), name) != avail.end())
            continue;
        const AttentionBackend* be = reg.find(name);
        ASSERT_NE(be, nullptr) << name;
        EXPECT_FALSE(be->unavailableReason().empty()) << name;
    }
}

TEST(BackendRegistry, UnknownNameDiesListingRegistered)
{
    EXPECT_DEATH(BackendRegistry::instance().resolve("warp-speed"),
                 "unknown attention backend 'warp-speed'.*fused-paged");
}

TEST(BackendRegistry, FindReturnsNullForUnknown)
{
    EXPECT_EQ(BackendRegistry::instance().find("warp-speed"), nullptr);
    EXPECT_NE(BackendRegistry::instance().find("reference"), nullptr);
}

/** Minimal backend used to probe duplicate registration. */
class ShadowReference : public AttentionBackend
{
  public:
    const char* name() const override { return "reference"; }
    backend::BackendCapabilities capabilities() const override { return {}; }
    std::vector<Tensor<float>> decodeStep(const DecodeBatch&) const override
    {
        return {};
    }
};

TEST(BackendRegistry, DuplicateNameRegistrationDies)
{
    EXPECT_DEATH(BackendRegistry::instance().add(
                     std::make_unique<ShadowReference>()),
                 "'reference' is already registered");
}

// ----------------------------------------------- capability resolution --

TEST(BackendResolution, PrefersFusedHotPathsDeterministically)
{
    auto& reg = BackendRegistry::instance();
    ResolveQuery q;
    q.cache = CacheKind::Paged;
    q.format = QuantFormat::Fp16;
    q.scenario = attn::Scenario::Serving;
    // Both reference and fused-paged match; the fused hot path wins.
    EXPECT_STREQ(reg.resolveCapable(q).name(), "fused-paged");

    q.cache = CacheKind::Contiguous;
    q.scenario = attn::Scenario::Single;
    EXPECT_STREQ(reg.resolveCapable(q).name(), "fused-fp16");

    q.format = QuantFormat::Int2; // QServe is 4-bit-only; KIVI isn't fused
    EXPECT_STREQ(reg.resolveCapable(q).name(), "fused-packed");

    q.format = QuantFormat::Mx;
    EXPECT_STREQ(reg.resolveCapable(q).name(), "mx");
}

TEST(BackendResolution, CapabilityMismatchDiesWithMatrix)
{
    ResolveQuery q;
    q.cache = CacheKind::Paged;
    q.format = QuantFormat::Int2;
    q.scenario = attn::Scenario::Serving;
    EXPECT_DEATH(BackendRegistry::instance().resolveCapable(q),
                 "no registered backend supports.*capability matrix");
}

TEST(BackendResolution, BindingMismatchDiesWithClearError)
{
    // A paged cache handed to the contiguous-only fused-packed backend
    // must fail with the backend's name and capability line, not crash.
    auto& reg = BackendRegistry::instance();
    const AttentionBackend& packed = reg.resolve("fused-packed");
    FixtureConfig fc;
    fc.context = 64;
    fc.head_dim = 16;
    fc.gq = 2;
    const DecodeFixture paged_fx(reg.resolve("fused-paged"), fc);
    EXPECT_DEATH(packed.decodeStep(paged_fx.batch()),
                 "backend 'fused-packed' cannot consume a paged-fp16 item");
}

// ------------------------------------------------------------- plans ----

TEST(BackendPlan, ReportsChunkingAndRejectsWrongScenarios)
{
    auto& reg = BackendRegistry::instance();
    attn::DecodeShape shape;
    shape.seq_len = 1000;
    shape.page_size = 64;
    shape.scenario = attn::Scenario::Serving;

    const backend::DecodePlan paged =
        reg.resolve("fused-paged").plan(shape);
    ASSERT_TRUE(paged.supported);
    EXPECT_EQ(paged.kv_chunk, 64);
    EXPECT_EQ(paged.splits, 16); // ceil(1000 / 64)

    const backend::DecodePlan flash = reg.resolve("flash").plan(shape);
    EXPECT_FALSE(flash.supported);
    EXPECT_FALSE(flash.reason.empty());

    shape.scenario = attn::Scenario::Single;
    const backend::DecodePlan flash1 = reg.resolve("flash").plan(shape);
    ASSERT_TRUE(flash1.supported);
    EXPECT_EQ(flash1.splits, 4);

    const backend::DecodePlan f16 = reg.resolve("fused-fp16").plan(shape);
    ASSERT_TRUE(f16.supported);
    EXPECT_EQ(f16.kv_chunk, exec::kChunkTokens);

    // fused-packed chunks by residual blocks, never "one pass".
    const backend::DecodePlan pk = reg.resolve("fused-packed").plan(shape);
    ASSERT_TRUE(pk.supported);
    EXPECT_GT(pk.kv_chunk, 0);
    EXPECT_GT(pk.splits, 1);
}

// ------------------------------------------------ digest parity sweep ---

/**
 * Every backend with a flat-tensor reference must match it to 1e-3 over
 * the same content stream. The sweep enumerates the registry instead of
 * hard-coding names, so a newly registered backend (e.g. a SIMD sibling)
 * is covered the moment it registers; only `mx` opts out (its cache is
 * built from a different content stream than the flat fixture's).
 */
TEST(BackendParity, AllBackendsMatchReferenceAt1e3)
{
    auto& reg = BackendRegistry::instance();
    FixtureConfig fc;
    // 288 tokens: divisible by the quantization group size (32), but a
    // partial last page (288 % 13 != 0) and a partial fused chunk
    // (288 % 128 != 0), so every path's tail handling is in the sweep.
    fc.context = 288;
    fc.head_dim = 32;
    fc.gq = 4;
    fc.page_size = 13;
    const float scale = 1.0f / std::sqrt(32.0f);

    int swept = 0;
    for (const std::string& name : reg.availableNames()) {
        if (name == "mx")
            continue;
        const AttentionBackend& be = reg.resolve(name);
        const DecodeFixture fx(be, fc);
        DecodeBatch b = fx.batch();
        b.scale = scale;
        const Tensor<float> got = be.decodeStep(b)[0];
        const Tensor<float> want = fx.referenceOutput(scale);
        EXPECT_LT(attn::maxAbsDiff(got, want), 1e-3f) << name;
        swept++;
    }
    EXPECT_GE(swept, 7); // at minimum the scalar builtins
}

/**
 * Golden digests of the base fused backends on the 288-token, page-13
 * fixture. The level-parity tests compare the kernel tables with each
 * other, so a bug in the shared driver would pass them; these constants
 * pin the scalar outputs themselves. Any change to a fused driver's
 * arithmetic, chunking or merge order must show up here.
 */
TEST(BackendParity, FusedDigestsMatchGoldenValues)
{
    auto& reg = BackendRegistry::instance();
    FixtureConfig fc;
    fc.context = 288;
    fc.head_dim = 32;
    fc.gq = 4;
    fc.page_size = 13;
    const std::pair<const char*, std::uint64_t> golden[] = {
        {"fused-fp16", 0x8a116f6d92938f59ull},
        {"fused-packed", 0xd9d308ac8a59190full},
        {"fused-paged", 0x5bf8306f89a2e26dull},
    };
    for (const auto& [name, want] : golden) {
        const AttentionBackend& be = reg.resolve(name);
        const DecodeFixture fx(be, fc);
        DecodeBatch b = fx.batch();
        b.scale = 0.125f;
        const std::uint64_t got = be.digest(b);
        EXPECT_EQ(got, want) << name << " digest 0x" << std::hex << got;
    }
}

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

/**
 * The SIMD contract: every available sibling digests bitwise identically
 * to its scalar twin over identical cache content — same chunking, same
 * merge order, bit-equal arithmetic. Covers partial pages, partial
 * chunks, and the packed path's residual tail.
 */
TEST(BackendParity, SimdSiblingsDigestIdenticalToScalarTwins)
{
    auto& reg = BackendRegistry::instance();
    FixtureConfig fc;
    fc.context = 288;
    fc.head_dim = 32;
    fc.gq = 4;
    fc.page_size = 13;
    for (const std::string& name : reg.availableNames()) {
        const std::string twin = scalarTwinOf(name);
        if (twin.empty())
            continue;
        const AttentionBackend& be = reg.resolve(name);
        const AttentionBackend& sc = reg.resolve(twin);
        // Equal fixture configs bind bitwise-equal cache content.
        const DecodeFixture fx(be, fc);
        const DecodeFixture fxs(sc, fc);
        DecodeBatch b = fx.batch();
        DecodeBatch bs = fxs.batch();
        b.scale = bs.scale = 0.125f;
        EXPECT_EQ(be.digest(b), sc.digest(bs)) << name << " vs " << twin;
    }
}

/**
 * Equal chunking must mean equal bytes: at page_size == kChunkTokens the
 * paged and contiguous fused paths partition the KV identically, so
 * their digests over identical content must match bitwise.
 */
TEST(BackendParity, EqualChunkingDigestsAreBitwiseIdentical)
{
    auto& reg = BackendRegistry::instance();
    FixtureConfig fc;
    fc.context = 300; // 2 full chunks + a 44-token partial
    fc.head_dim = 32;
    fc.gq = 4;
    fc.page_size = exec::kChunkTokens;
    const AttentionBackend& fp16 = reg.resolve("fused-fp16");
    const AttentionBackend& paged = reg.resolve("fused-paged");
    const DecodeFixture fx16(fp16, fc);
    const DecodeFixture fxp(paged, fc);

    DecodeBatch b16 = fx16.batch();
    DecodeBatch bp = fxp.batch();
    b16.scale = bp.scale = 0.125f;
    EXPECT_EQ(fp16.digest(b16), paged.digest(bp));
}

TEST(BackendParity, DigestsAreThreadCountInvariant)
{
    auto& reg = BackendRegistry::instance();
    FixtureConfig fc;
    fc.context = 520;
    fc.head_dim = 32;
    fc.gq = 4;
    exec::ThreadPool pool8(8);
    for (const std::string& name : reg.fusedNames()) {
        const AttentionBackend& be = reg.resolve(name);
        const DecodeFixture fx(be, fc);
        DecodeBatch serial = fx.batch();
        serial.scale = 0.125f;
        DecodeBatch parallel = serial;
        parallel.pool = &pool8;
        EXPECT_EQ(be.digest(serial), be.digest(parallel)) << name;
    }
}

// ----------------------------------------------------- engine wiring ----

TEST(EngineBackend, UnknownNameFailsFastAtConstruction)
{
    serving::EngineConfig cfg;
    cfg.num_pages = 64;
    cfg.page_size = 16;
    cfg.backend = "definitely-not-a-backend";
    EXPECT_DEATH(serving::Engine(sim::archA100(), model::llama31_8b(), cfg),
                 "unknown attention backend.*fused-paged");
}

TEST(EngineBackend, NonPagedBackendIsRejectedWithCapabilities)
{
    serving::EngineConfig cfg;
    cfg.num_pages = 64;
    cfg.page_size = 16;
    cfg.backend = "kivi";
    EXPECT_DEATH(serving::Engine(sim::archA100(), model::llama31_8b(), cfg),
                 "backend 'kivi' cannot serve the engine's paged FP16");
}

/** The reference backend also serves pages (gather path): digests agree
 *  with fused-paged runs to the extent the hashes certify content, and
 *  every request gets a nonzero attention hash. */
TEST(EngineBackend, ReferenceBackendServesAsOracle)
{
    serving::EngineConfig cfg;
    cfg.num_pages = 64;
    cfg.page_size = 16;
    cfg.backend = "reference";
    cfg.sched.max_batch = 4;
    serving::TraceConfig tc;
    tc.num_requests = 4;
    tc.arrival_rate_qps = 100.0;
    tc.prompt_median = 20;
    tc.prompt_max = 40;
    tc.output_median = 8;
    tc.output_max = 12;
    std::vector<serving::Request> reqs = serving::generateTrace(tc);
    serving::Engine engine(sim::archA100(), model::llama31_8b(), cfg);
    engine.run(reqs);
    for (const auto& r : reqs)
        EXPECT_NE(r.attn_hash, 0u) << "request " << r.id;
}

/** Serving with a SIMD paged backend must be byte-identical to serving
 *  with the scalar fused-paged backend: same trace, same per-request
 *  attention hashes. */
TEST(EngineBackend, SimdPagedBackendServesByteIdentically)
{
    auto& reg = BackendRegistry::instance();
    serving::TraceConfig tc;
    tc.num_requests = 4;
    tc.arrival_rate_qps = 100.0;
    tc.prompt_median = 20;
    tc.prompt_max = 40;
    tc.output_median = 8;
    tc.output_max = 12;
    const std::vector<serving::Request> trace = serving::generateTrace(tc);

    const auto hashesWith = [&trace](const std::string& be) {
        serving::EngineConfig cfg;
        cfg.num_pages = 64;
        cfg.page_size = 16;
        cfg.backend = be;
        cfg.sched.max_batch = 4;
        std::vector<serving::Request> reqs = trace;
        serving::Engine engine(sim::archA100(), model::llama31_8b(), cfg);
        engine.run(reqs);
        std::vector<std::uint64_t> hashes;
        for (const auto& r : reqs)
            hashes.push_back(r.attn_hash);
        return hashes;
    };

    const std::vector<std::uint64_t> scalar = hashesWith("fused-paged");
    int compared = 0;
    for (const char* sibling : {"fused-paged-avx2", "fused-paged-avx512"}) {
        const AttentionBackend* be = reg.find(sibling);
        ASSERT_NE(be, nullptr);
        if (!be->available())
            continue;
        EXPECT_EQ(hashesWith(sibling), scalar) << sibling;
        compared++;
    }
    if (compared == 0)
        GTEST_SKIP() << "host runs no SIMD paged sibling: "
                     << exec::simd::describeCpuFeatures();
}

} // namespace
} // namespace bitdec
