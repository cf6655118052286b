/**
 * @file
 * One CLI surface for every serving-aware binary.
 *
 * bench_cpu_hotpath, bench_serving_e2e and examples/serving_throughput
 * used to carry three diverging copies of the backend/fault flag
 * parsing; ServingOptions::parse is the single implementation, so a
 * flag added here (like --shards) appears in every binary with the same
 * grammar and the same fail-fast messages.
 *
 * Flags:
 *   --backend=<name>          per-step attention backend (registry name)
 *   --list-backends[=mode]    print registered backends and exit
 *                             (default: capability matrix; =names or
 *                             =fused: bare names, machine-readable)
 *   --faults=<spec>           fault-injection storm, FaultSchedule grammar
 *   --fault-seed=<n>          chaos decision seed
 *   --shards=<n>              engine replicas behind the ServingClient
 *   --smoke                   CI gate mode (subset of runs, hard pass/fail)
 *   --port=<n>                TCP port (bitdec_server/bitdec_client;
 *                             0 = ephemeral on the server)
 *   --hot-pool-pages=<n>      hot KV pool size for tiered scenarios
 *   --tier=<layout>           cold tiers: host | host,disk | none
 *
 * Unknown arguments are left for the caller; malformed values for the
 * flags above die immediately naming the flag (never a silent default).
 */
#ifndef BITDEC_SERVING_OPTIONS_H
#define BITDEC_SERVING_OPTIONS_H

#include <cstdint>
#include <string>

#include "fault/fault.h"

namespace bitdec::backend {
class AttentionBackend;
} // namespace bitdec::backend

namespace bitdec::serving {

/**
 * Strictly parses the value of `--flag=<n>`: the whole of @p text must
 * be an integer (strtol base 0: decimal, 0x hex, leading-0 octal) in
 * [@p min_value, INT_MAX]. Garbage, negative values and overflow die
 * naming @p flag, so a typo never becomes a silent 0. Shared by every
 * tool's numeric flags.
 */
int intValue(const char* flag, const char* text, int min_value = 0);

/** intValue for 64-bit seeds: the whole of @p text must be an unsigned
 *  integer (base 0) up to 2^64-1; a sign, garbage or overflow dies
 *  naming @p flag. */
std::uint64_t u64Value(const char* flag, const char* text);

/** Parsed command-line options shared by the serving binaries. */
struct ServingOptions
{
    std::string backend;   //!< --backend=<name>; empty = caller's default
    bool list_backends = false; //!< --list-backends[=mode] was given
    std::string list_mode;      //!< "" (matrix), "names" or "fused"

    std::string fault_spec;       //!< --faults=<spec>; empty = no override
    std::uint64_t fault_seed = 0; //!< --fault-seed=<n>
    bool fault_seed_given = false;

    int shards = 1;     //!< --shards=<n> engine replicas
    bool smoke = false; //!< --smoke CI gate mode

    int port = 9178;        //!< --port=<n>; 0 = ephemeral (bitdec_server)
    bool port_given = false;

    int hot_pool_pages = 2048;      //!< --hot-pool-pages=<n>
    std::string tier = "host,disk"; //!< --tier=host|host,disk|none

    /** Scans argv; unrelated arguments are ignored, malformed values
     *  for known flags are fatal. */
    static ServingOptions parse(int argc, char** argv);

    /**
     * Handles --list-backends: prints the capability matrix (default) or
     * bare names (=names / =fused — CI loops its perf gates over exactly
     * the =fused set). @return true when the caller should exit.
     */
    bool maybeListBackends() const;

    /** Resolves --backend (or @p fallback when absent) through the
     *  registry; unknown names die listing every registered backend. */
    const backend::AttentionBackend&
    resolveBackend(const std::string& fallback) const;

    /** The storm to run: --faults when given, @p default_spec otherwise. */
    fault::FaultSchedule faultsOr(const std::string& default_spec) const;
};

} // namespace bitdec::serving

#endif // BITDEC_SERVING_OPTIONS_H
