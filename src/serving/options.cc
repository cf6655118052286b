#include "serving/options.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "backend/registry.h"
#include "common/logging.h"

namespace bitdec::serving {

int
intValue(const char* flag, const char* text, int min_value)
{
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 0);
    if (end == text || *end != '\0' || errno == ERANGE || v < 0 ||
        v > std::numeric_limits<int>::max())
        BITDEC_FATAL(flag, "= needs a non-negative integer, got '", text,
                     "'");
    if (v < min_value)
        BITDEC_FATAL(flag, "= needs at least ", min_value, ", got '", text,
                     "'");
    return static_cast<int>(v);
}

std::uint64_t
u64Value(const char* flag, const char* text)
{
    // strtoull negates a leading '-' instead of rejecting it.
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0' || errno == ERANGE ||
        std::strchr(text, '-') != nullptr)
        BITDEC_FATAL(flag, "= needs a non-negative integer, got '", text,
                     "'");
    return v;
}

ServingOptions
ServingOptions::parse(int argc, char** argv)
{
    ServingOptions o;
    for (int i = 1; i < argc; i++) {
        const char* arg = argv[i];
        if (std::strncmp(arg, "--backend=", 10) == 0) {
            o.backend = arg + 10;
            if (o.backend.empty())
                BITDEC_FATAL("--backend= needs a name (see "
                             "--list-backends)");
        } else if (std::strcmp(arg, "--backend") == 0) {
            // Space-separated form would silently select the default
            // backend — the exact silent fallback this API forbids.
            BITDEC_FATAL("--backend takes its value with '=', e.g. "
                         "--backend=fused-paged");
        } else if (std::strcmp(arg, "--list-backends") == 0) {
            o.list_backends = true;
        } else if (std::strncmp(arg, "--list-backends=", 16) == 0) {
            o.list_backends = true;
            o.list_mode = arg + 16;
        } else if (std::strncmp(arg, "--faults=", 9) == 0) {
            o.fault_spec = arg + 9;
            if (o.fault_spec.empty())
                BITDEC_FATAL("--faults= needs a spec, e.g. "
                             "--faults=fetch=0.02,corrupt=0.01");
        } else if (std::strcmp(arg, "--faults") == 0) {
            BITDEC_FATAL("--faults takes its value with '=', e.g. "
                         "--faults=fetch=0.02,corrupt=0.01");
        } else if (std::strncmp(arg, "--fault-seed=", 13) == 0) {
            o.fault_seed = u64Value("--fault-seed", arg + 13);
            o.fault_seed_given = true;
        } else if (std::strcmp(arg, "--fault-seed") == 0) {
            BITDEC_FATAL("--fault-seed takes its value with '=', e.g. "
                         "--fault-seed=1337");
        } else if (std::strncmp(arg, "--shards=", 9) == 0) {
            o.shards = intValue("--shards", arg + 9, 1);
        } else if (std::strcmp(arg, "--shards") == 0) {
            BITDEC_FATAL("--shards takes its value with '=', e.g. "
                         "--shards=4");
        } else if (std::strcmp(arg, "--smoke") == 0) {
            o.smoke = true;
        } else if (std::strncmp(arg, "--port=", 7) == 0) {
            o.port = intValue("--port", arg + 7);
            if (o.port > 65535)
                BITDEC_FATAL("--port= must be <= 65535, got '", arg + 7,
                             "'");
            o.port_given = true;
        } else if (std::strcmp(arg, "--port") == 0) {
            BITDEC_FATAL("--port takes its value with '=', e.g. "
                         "--port=9178");
        } else if (std::strncmp(arg, "--hot-pool-pages=", 17) == 0) {
            o.hot_pool_pages = intValue("--hot-pool-pages", arg + 17, 1);
        } else if (std::strncmp(arg, "--tier=", 7) == 0) {
            o.tier = arg + 7;
            if (o.tier != "host" && o.tier != "host,disk" &&
                o.tier != "none")
                BITDEC_FATAL("--tier= must be 'host', 'host,disk' or "
                             "'none', got '",
                             o.tier, "'");
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            o.help = true;
        }
    }
    return o;
}

const char*
ServingOptions::flagsHelp()
{
    return "  --backend=<name>          per-step attention backend "
           "(see --list-backends)\n"
           "  --list-backends[=mode]    print the backends this host runs "
           "and exit\n"
           "                            (capability matrix; =names or "
           "=fused: bare names)\n"
           "  --faults=<spec>           fault-injection storm, e.g. "
           "fetch=0.02,corrupt=0.01\n"
           "  --fault-seed=<n>          chaos decision seed\n"
           "  --shards=<n>              engine replicas behind the client "
           "(default 1)\n"
           "  --smoke                   CI gate mode (subset of runs, hard "
           "pass/fail)\n"
           "  --port=<n>                TCP port (default 9178; 0 = "
           "ephemeral on the server)\n"
           "  --hot-pool-pages=<n>      hot KV pool size for tiered "
           "scenarios (default 2048)\n"
           "  --tier=<layout>           cold tiers: host | host,disk | none "
           "(default host,disk)\n"
           "  --help, -h                print this help and exit\n";
}

bool
ServingOptions::maybeListBackends() const
{
    if (!list_backends)
        return false;
    if (!list_mode.empty() && list_mode != "names" && list_mode != "fused")
        BITDEC_FATAL("unknown --list-backends mode '", list_mode,
                     "' (use --list-backends, =names or =fused)");
    auto& reg = backend::BackendRegistry::instance();
    // Every listing mode shows only what this host can run: a SIMD
    // sibling whose ISA is missing (or capped away by BITDEC_SIMD) never
    // appears, so scripted `--list-backends` loops stay executable.
    if (list_mode == "names" || list_mode == "fused") {
        const auto names =
            list_mode == "fused" ? reg.fusedNames() : reg.availableNames();
        for (const std::string& n : names)
            std::printf("%s\n", n.c_str());
        return true;
    }
    std::printf("registered attention backends "
                "(caches | formats | scenarios):\n%s",
                reg.capabilityMatrix(/*available_only=*/true).c_str());
    return true;
}

const backend::AttentionBackend&
ServingOptions::resolveBackend(const std::string& fallback) const
{
    return backend::BackendRegistry::instance().resolve(
        backend.empty() ? fallback : backend);
}

fault::FaultSchedule
ServingOptions::faultsOr(const std::string& default_spec) const
{
    return fault::FaultSchedule::parse(
        fault_spec.empty() ? default_spec : fault_spec);
}

} // namespace bitdec::serving
