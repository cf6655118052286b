// Tests of the benchmark's own helpers (perfbench/src/stats.h).
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/bitdecoding.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double>
ramp(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; i--) // unsorted on purpose
        v.push_back(i);
    return v;
}

TEST(TailPct, KeepsTenSamplesBeyondTheReportedRank)
{
    // 1000 samples support p99 exactly: rank 990, 10 beyond.
    const Pct p99 = tailPct(ramp(1000), 99);
    EXPECT_EQ(p99.n, 1000u);
    EXPECT_DOUBLE_EQ(p99.value, 990);
    EXPECT_DOUBLE_EQ(p99.pct, 99);
    EXPECT_EQ(p99.beyond, 10u);

    // 200 samples cannot: p99 falls back to rank 190 (p95).
    const Pct low = tailPct(ramp(200), 99);
    EXPECT_DOUBLE_EQ(low.value, 190);
    EXPECT_DOUBLE_EQ(low.pct, 95);
    EXPECT_EQ(low.beyond, 10u);

    // A percentile the sample supports is left alone.
    const Pct p90 = tailPct(ramp(200), 90);
    EXPECT_DOUBLE_EQ(p90.value, 180);
    EXPECT_EQ(p90.beyond, 20u);
}

TEST(TailPct, NeverDropsBelowTheMedian)
{
    const Pct p = tailPct(ramp(12), 99);
    EXPECT_DOUBLE_EQ(p.value, 6);
    EXPECT_DOUBLE_EQ(p.pct, 50);
    EXPECT_EQ(p.beyond, 6u);
    EXPECT_DOUBLE_EQ(tailPct({7.0}, 90).value, 7);
    EXPECT_EQ(tailPct({}, 50).n, 0u);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2);
}

TEST(Tpot, ExcludesSingleTokenRequests)
{
    EXPECT_DOUBLE_EQ(tpotMs(10, 40, 4), 10);
    EXPECT_DOUBLE_EQ(tpotMs(10, 10, 2), 0);
    EXPECT_LT(tpotMs(10, 10, 1), 0);
    EXPECT_LT(tpotMs(-1, -1, 0), 0);
}

TEST(Generators, AreDeterministicPerSeed)
{
    EXPECT_EQ(poissonSchedule(7, 800, 1000), poissonSchedule(7, 800, 1000));
    EXPECT_NE(poissonSchedule(7, 800, 1000), poissonSchedule(8, 800, 1000));
    const std::vector<double> due = poissonSchedule(7, 800, 5000);
    EXPECT_NEAR(static_cast<double>(due.size()), 4000, 250);
    for (std::size_t i = 1; i < due.size(); i++)
        ASSERT_GT(due[i], due[i - 1]);

    for (int id = 1; id < 200; id++) {
        for (Profile prof : {Profile::Chat, Profile::Rag}) {
            const Shape a = requestShape(prof, 7, id);
            const Shape b = requestShape(prof, 7, id);
            EXPECT_EQ(a.prompt_tokens, b.prompt_tokens);
            EXPECT_EQ(a.output_tokens, b.output_tokens);
            EXPECT_EQ(a.prefix_id, b.prefix_id);
        }
        const Shape c = requestShape(Profile::Chat, 7, id);
        EXPECT_GE(c.prompt_tokens, 64);
        EXPECT_LE(c.prompt_tokens, 512);
        EXPECT_GE(c.output_tokens, 8);
        EXPECT_LE(c.output_tokens, 48);
        EXPECT_EQ(c.prefix_id, 0u);
        const Shape r = requestShape(Profile::Rag, 7, id);
        EXPECT_EQ(r.prefix_tokens, 12288);
        EXPECT_GT(r.prompt_tokens, r.prefix_tokens);
        EXPECT_NE(r.prefix_id, 0u);
    }
    // Four prefix families per seed.
    std::vector<std::uint64_t> families;
    for (int id = 1; id < 400; id++) {
        const std::uint64_t f = requestShape(Profile::Rag, 7, id).prefix_id;
        if (std::find(families.begin(), families.end(), f) == families.end())
            families.push_back(f);
    }
    EXPECT_EQ(families.size(), 4u);
}

TEST(ComputedBytes, MatchesAPackedCacheOfKnownSize)
{
    // KC-4, d = 128: two full residual blocks packed, 5 rows residual.
    const int d = 128;
    const bitdec::core::BitDecodingConfig cfg;
    bitdec::core::HeadDecoder dec(d, cfg);
    const int nr = dec.cache().residualBlockSize();
    const int len = 2 * nr + 5;
    bitdec::Tensor<bitdec::Half> k({static_cast<std::size_t>(len),
                                    static_cast<std::size_t>(d)});
    bitdec::Tensor<bitdec::Half> v = k;
    for (std::size_t i = 0; i < k.numel(); i++) {
        k[i] = bitdec::Half(static_cast<float>(i % 7) - 3.0f);
        v[i] = bitdec::Half(static_cast<float>(i % 5) - 2.0f);
    }
    dec.prefill(k, v);
    ASSERT_EQ(dec.cache().packedTokens(), 2 * nr);
    ASSERT_EQ(dec.cache().residualLength(), 5);

    // Per block and matrix: nr*d 4-bit codes, plus one 4-byte scale/zero
    // pair per 32-element group (keys grouped along tokens per channel,
    // values along channels per token).
    const double codes = nr * d * 4.0 / 8.0;
    const double params = nr * d / 32.0 * 4.0;
    const double residual = 2.0 * 5 * d * 2.0;
    const double expected = 2 * 2 * (codes + params) + residual;
    EXPECT_DOUBLE_EQ(computedStepBytes(dec.cache()), expected);
    // The product's deviceBytes counts the whole residual buffer.
    EXPECT_DOUBLE_EQ(computedStepBytes(dec.cache()) +
                         2.0 * (nr - 5) * d * 2.0,
                     dec.cache().deviceBytes());
}

TEST(JsonNumber, FindsNestedLeafKeys)
{
    const std::string j =
        "{\"preemptions\": 3, \"tier\": {\"offloaded_pages\": 12.5}}";
    EXPECT_DOUBLE_EQ(jsonNumber(j, "preemptions"), 3);
    EXPECT_DOUBLE_EQ(jsonNumber(j, "offloaded_pages"), 12.5);
    EXPECT_TRUE(std::isnan(jsonNumber(j, "missing")));
}

} // namespace
} // namespace perfbench
