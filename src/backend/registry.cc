#include "backend/registry.h"

#include "common/logging.h"

namespace bitdec::backend {

// Defined in each builtin adapter translation unit. instance() calls
// them (opaque to the optimizer, so the calls cannot be elided) to force
// those TUs — and their self-registering static initializers — into
// static-library links that would otherwise drop them as unreferenced.
int linkFp16Backends();
int linkLowbitBackends();
int linkMxBackends();
int linkFusedBackends();

BackendRegistry&
BackendRegistry::instance()
{
    static BackendRegistry registry;
    static const int anchors = linkFp16Backends() + linkLowbitBackends() +
                               linkMxBackends() + linkFusedBackends();
    (void)anchors;
    return registry;
}

void
BackendRegistry::add(std::unique_ptr<AttentionBackend> backend)
{
    BITDEC_ASSERT(backend != nullptr, "null backend");
    const std::string name = backend->name();
    if (backends_.count(name) > 0)
        BITDEC_FATAL("attention backend '", name, "' is already registered");
    backends_[name] = std::move(backend);
}

AttentionBackend&
BackendRegistry::resolve(const std::string& name) const
{
    const auto it = backends_.find(name);
    if (it == backends_.end()) {
        std::string known;
        for (const auto& [n, b] : backends_) {
            if (!known.empty())
                known += ", ";
            known += n;
        }
        BITDEC_FATAL("unknown attention backend '", name,
                     "' (registered: ", known, ")");
    }
    if (!it->second->available())
        BITDEC_FATAL("attention backend '", name,
                     "' is unavailable on this host: ",
                     it->second->unavailableReason());
    return *it->second;
}

const AttentionBackend*
BackendRegistry::find(const std::string& name) const
{
    const auto it = backends_.find(name);
    return it == backends_.end() ? nullptr : it->second.get();
}

AttentionBackend&
BackendRegistry::resolveCapable(const ResolveQuery& query) const
{
    AttentionBackend* best = nullptr;
    bool best_fused = false;
    // Map order = name order, so the first fused (or first overall) match
    // is the deterministic winner.
    for (const auto& [name, b] : backends_) {
        if (!b->available())
            continue;
        const BackendCapabilities caps = b->capabilities();
        if (!caps.supportsCache(query.cache) ||
            !caps.supportsFormat(query.format) ||
            !caps.supportsScenario(query.scenario))
            continue;
        if (best == nullptr || (caps.fused_hot_path && !best_fused)) {
            best = b.get();
            best_fused = caps.fused_hot_path;
        }
    }
    if (best == nullptr)
        BITDEC_FATAL("no registered backend supports (",
                     toString(query.cache), ", ", toString(query.format),
                     ", ", attn::toString(query.scenario),
                     ")\ncapability matrix:\n", capabilityMatrix());
    return *best;
}

std::vector<std::string>
BackendRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(backends_.size());
    for (const auto& [n, b] : backends_)
        out.push_back(n);
    return out;
}

std::vector<std::string>
BackendRegistry::availableNames() const
{
    std::vector<std::string> out;
    for (const auto& [n, b] : backends_)
        if (b->available())
            out.push_back(n);
    return out;
}

std::vector<std::string>
BackendRegistry::fusedNames() const
{
    std::vector<std::string> out;
    for (const auto& [n, b] : backends_)
        if (b->capabilities().fused_hot_path && b->available())
            out.push_back(n);
    return out;
}

std::string
BackendRegistry::capabilityMatrix(bool available_only) const
{
    std::string out;
    for (const auto& [n, b] : backends_) {
        if (available_only && !b->available())
            continue;
        out += "  ";
        out += n;
        out.append(n.size() < 20 ? 20 - n.size() : 1, ' ');
        out += describe(b->capabilities());
        out += "\n";
    }
    return out;
}

} // namespace bitdec::backend
