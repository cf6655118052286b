#include "trace.h"

#include <atomic>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>

#include "backend/registry.h"
#include "stats.h"

namespace perfbench {

using bitdec::backend::AttentionBackend;
using bitdec::backend::BackendRegistry;
using bitdec::serving::Request;
using bitdec::serving::ServingMetrics;

std::uint64_t
nextSpanId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
SpanLog::add(const char* name, double start_ms, double end_ms,
             std::uint64_t parent, std::int32_t request, std::uint64_t id)
{
    if (id == 0)
        id = nextSpanId();
    spans_.push_back({name, start_ms, end_ms, id, parent, request});
    return id;
}

bool
writeSpans(const std::string& path, const std::vector<const SpanLog*>& logs)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (const SpanLog* log : logs)
        for (const Span& s : log->spans())
            std::fprintf(f,
                         "{\"name\": \"%s\", \"start_ms\": %.6f, "
                         "\"end_ms\": %.6f, \"id\": %llu, \"parent\": %llu, "
                         "\"request\": %d}\n",
                         s.name, s.start_ms, s.end_ms,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         s.request);
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- backend

TracedBackend&
TracedBackend::install(const std::string& inner)
{
    // The registry owns backends for the process lifetime; remember the
    // wrappers already added so a second install returns the same one.
    static std::map<std::string, TracedBackend*> installed;
    const auto it = installed.find(inner);
    if (it != installed.end())
        return *it->second;
    auto owned = std::make_unique<TracedBackend>(
        BackendRegistry::instance().resolve(inner));
    TracedBackend* raw = owned.get();
    BackendRegistry::instance().add(std::move(owned));
    installed.emplace(inner, raw);
    return *raw;
}

TracedBackend::TracedBackend(const AttentionBackend& inner)
    : inner_(inner), name_(std::string(inner.name()) + "+trace")
{
}

bitdec::backend::BackendCapabilities
TracedBackend::capabilities() const
{
    return inner_.capabilities();
}

bool
TracedBackend::available() const
{
    return inner_.available();
}

std::string
TracedBackend::unavailableReason() const
{
    return inner_.unavailableReason();
}

const char*
TracedBackend::simdLevel() const
{
    return inner_.simdLevel();
}

bitdec::backend::DecodePlan
TracedBackend::plan(const bitdec::attn::DecodeShape& shape) const
{
    return inner_.plan(shape);
}

std::vector<bitdec::Tensor<float>>
TracedBackend::decodeStep(const bitdec::backend::DecodeBatch& batch) const
{
    const double t0 = nowMs();
    std::vector<bitdec::Tensor<float>> out = inner_.decodeStep(batch);
    const double t1 = nowMs();
    call_ms.push_back(t1 - t0);
    call_items.push_back(static_cast<int>(batch.items.size()));
    log.add("backend.decodeStep", t0, t1, parent);
    return out;
}

void
TracedBackend::reset() const
{
    parent = 0;
    call_ms.clear();
    call_items.clear();
    log = SpanLog();
}

// ----------------------------------------------------------------- client

namespace {

double
threadCpuS()
{
    timespec t{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

/** Adds the calling thread's CPU time over its scope to a counter. */
class ScopedCpu
{
  public:
    explicit ScopedCpu(double& total) : total_(total), t0_(threadCpuS()) {}
    ~ScopedCpu() { total_ += threadCpuS() - t0_; }
    ScopedCpu(const ScopedCpu&) = delete;
    ScopedCpu& operator=(const ScopedCpu&) = delete;

  private:
    double& total_;
    double t0_;
};

} // namespace

TracedClient::TracedClient(bitdec::serving::ServingClient& inner,
                           const TracedBackend* backend)
    : inner_(inner), backend_(backend)
{
}

int
TracedClient::submit(const Request& r)
{
    ScopedCpu t(client_cpu_s);
    return inner_.submit(r);
}

const Request*
TracedClient::poll(int id) const
{
    ScopedCpu t(client_cpu_s);
    return inner_.poll(id);
}

bool
TracedClient::cancel(int id)
{
    ScopedCpu t(client_cpu_s);
    return inner_.cancel(id);
}

ServingMetrics
TracedClient::drain()
{
    ScopedCpu t(client_cpu_s);
    return inner_.drain();
}

bitdec::serving::ClientStats
TracedClient::stats() const
{
    ScopedCpu t(client_cpu_s);
    return inner_.stats();
}

std::string
TracedClient::admissionError(const Request& r) const
{
    ScopedCpu t(client_cpu_s);
    return inner_.admissionError(r);
}

void
TracedClient::streamBegin(bitdec::serving::TokenSink sink)
{
    ScopedCpu t(client_cpu_s);
    inner_.streamBegin(
        [this, sink = std::move(sink)](const bitdec::serving::TokenEvent& ev) {
            tokens++;
            if (!sink)
                return;
            const double t0 = nowMs();
            sink(ev);
            sink_ms += nowMs() - t0;
        });
}

int
TracedClient::streamSubmit(const Request& r)
{
    ScopedCpu cpu(client_cpu_s);
    const double t0 = nowMs();
    const int id = inner_.streamSubmit(r);
    const double t1 = nowMs();
    submit_ms.push_back(t1 - t0);
    log.add("serving.streamSubmit", t0, t1, 0, r.id);
    return id;
}

bool
TracedClient::streamCancel(int id)
{
    ScopedCpu t(client_cpu_s);
    return inner_.streamCancel(id);
}

bool
TracedClient::streamTick()
{
    const std::uint64_t span = nextSpanId();
    if (backend_ != nullptr)
        backend_->parent = span;
    ScopedCpu cpu(client_cpu_s);
    const double t0 = nowMs();
    const bool more = inner_.streamTick();
    const double t1 = nowMs();
    tick_start_ms.push_back(t0);
    tick_ms.push_back(t1 - t0);
    log.add("serving.streamTick", t0, t1, 0, 0, span);
    return more;
}

bool
TracedClient::streamIdle() const
{
    ScopedCpu t(client_cpu_s);
    return inner_.streamIdle();
}

double
TracedClient::streamClock() const
{
    ScopedCpu t(client_cpu_s);
    return inner_.streamClock();
}

ServingMetrics
TracedClient::streamSnapshot() const
{
    ScopedCpu t(client_cpu_s);
    return inner_.streamSnapshot();
}

ServingMetrics
TracedClient::streamEnd()
{
    ScopedCpu t(client_cpu_s);
    return inner_.streamEnd();
}

} // namespace perfbench
