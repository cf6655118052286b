#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "kvcache/kv_cache.h"

namespace perfbench {

double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

Pct
tailPct(std::vector<double> v, double target)
{
    Pct p;
    p.n = v.size();
    if (v.empty())
        return p;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    // Nearest rank k (1-based) of the target, capped so that n - k >= 10,
    // but never below the median's rank.
    auto rankOf = [n](double pct) {
        const double r = std::ceil(pct / 100.0 * static_cast<double>(n));
        return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
    };
    const std::size_t cap = std::max(n >= 10 ? n - 10 : 0, rankOf(50.0));
    const std::size_t k = std::min(rankOf(target), cap);
    p.value = v[k - 1];
    p.pct = k == rankOf(target)
                ? target
                : 100.0 * static_cast<double>(k) / static_cast<double>(n);
    p.beyond = n - k;
    return p;
}

double
median(std::vector<double> v)
{
    return tailPct(std::move(v), 50.0).value;
}

double
mean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
tpotMs(double first_ms, double last_ms, int tokens)
{
    if (tokens < 2)
        return -1;
    return (last_ms - first_ms) / static_cast<double>(tokens - 1);
}

namespace {

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    // splitmix64 finalizer over the pair: distinct (seed, id) pairs get
    // unrelated streams.
    std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

int
lognormal(bitdec::Rng& rng, double median, double sigma, int lo, int hi)
{
    const double x = median * std::exp(sigma * rng.normal());
    return std::clamp(static_cast<int>(std::lround(x)), lo, hi);
}

} // namespace

Shape
requestShape(Profile profile, std::uint64_t seed, int id)
{
    bitdec::Rng rng(mix(seed, static_cast<std::uint64_t>(id)));
    Shape s;
    s.id = id;
    switch (profile) {
    case Profile::Chat:
        s.prompt_tokens = lognormal(rng, 192, 0.5, 64, 512);
        s.output_tokens = lognormal(rng, 24, 0.4, 8, 48);
        break;
    case Profile::Rag: {
        constexpr int kPrefix = 12288;
        const std::uint64_t family = rng.uniformInt(4);
        s.prefix_id = mix(seed, 0xFA11ull + family) | 1; // never 0
        s.prefix_tokens = kPrefix;
        s.prompt_tokens = kPrefix + lognormal(rng, 4096, 0.5, 512, 16384);
        s.output_tokens = lognormal(rng, 64, 0.4, 16, 128);
        break;
    }
    }
    return s;
}

std::vector<double>
poissonSchedule(std::uint64_t seed, double rate_per_s, double duration_ms)
{
    bitdec::Rng rng(mix(seed, 0x5C4Eull));
    std::vector<double> due;
    double t = 0;
    for (;;) {
        // Exponential gap; 1 - u keeps log() away from 0.
        t += -std::log(1.0 - rng.uniform()) / rate_per_s * 1000.0;
        if (t >= duration_ms)
            return due;
        due.push_back(t);
    }
}

double
computedStepBytes(const bitdec::kv::PackedHeadCache& cache)
{
    double bytes = 0;
    for (const auto* blocks : {&cache.keyBlocks(), &cache.valueBlocks()})
        for (const bitdec::kv::PackedBlock& b : *blocks)
            bytes += static_cast<double>(b.units.size()) *
                         sizeof(std::uint32_t) +
                     static_cast<double>(b.params.numel()) *
                         sizeof(bitdec::Half2);
    // Live residual rows only, K and V, FP16.
    bytes += 2.0 * cache.residualLength() * cache.headDim() *
             sizeof(bitdec::Half);
    return bytes;
}

double
peakRssMb(int pid)
{
    char path[64];
    if (pid == 0)
        std::snprintf(path, sizeof(path), "/proc/self/status");
    else
        std::snprintf(path, sizeof(path), "/proc/%d/status", pid);
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr)
        return -1;
    char line[256];
    double kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr)
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kb < 0 ? -1 : kb / 1024.0;
}

double
jsonNumber(const std::string& json, const std::string& key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return std::numeric_limits<double>::quiet_NaN();
    const char* start = json.c_str() + at + needle.size();
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start)
        return std::numeric_limits<double>::quiet_NaN();
    return v;
}

} // namespace perfbench
