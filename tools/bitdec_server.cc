/**
 * @file
 * bitdec_server: the serving engine behind a TCP socket.
 *
 * Builds a ServingClient (one engine or a sharded cluster, per
 * --shards) and serves the framed protocol of docs/NETWORK.md on
 * --port until SIGINT/SIGTERM gracefully drains it: in-flight requests
 * finish, streams flush, the final metrics print, exit 0.
 *
 *   bitdec_server --port=9178 --shards=4 --backend=fused-paged
 *   bitdec_server --port=0                 # ephemeral, prints the port
 *   bitdec_server --faults=fetch=0.02,... # chaos serving (tiers on)
 *
 * Shared flags (src/serving/options.h): --port, --shards, --backend,
 * --faults/--fault-seed, --tier, --hot-pool-pages, --list-backends.
 * Server-only: --max-inflight=<n> (admission cap, default 64),
 * --write-buffer-kb=<n> (per-connection backpressure watermark).
 * --help prints both lists and exits without binding a port.
 */
#include <cstdio>
#include <cstring>

#include "backend/registry.h"
#include "gpusim/arch.h"
#include "model/model_config.h"
#include "net/drain.h"
#include "net/server.h"
#include "serving/client.h"
#include "serving/options.h"

using namespace bitdec;
using namespace bitdec::serving;

namespace {

/**
 * The canonical server engine shape. bitdec_client --verify-inprocess
 * rebuilds the digest-relevant part (backend, page_size,
 * cache_head_dim, shards) from the HELLO frame; everything else only
 * moves virtual time, never token content.
 */
EngineConfig
serverEngineConfig(const ServingOptions& opts, const std::string& backend)
{
    EngineConfig cfg;
    cfg.page_size = 64;
    cfg.cache_head_dim = 4;
    cfg.sched.max_batch = 32;
    cfg.sched.prefill_chunk_tokens = 2048;
    cfg.backend = backend;
    if (opts.tier != "none") {
        kv::TierSpec host;
        host.name = "host";
        host.capacity_gb = 8.0;
        cfg.tiered.tiers.push_back(host);
        if (opts.tier == "host,disk") {
            kv::TierSpec disk;
            disk.name = "disk";
            disk.capacity_gb = 64.0;
            disk.bandwidth_gbps = 4.0;
            disk.latency_s = 100e-6;
            cfg.tiered.tiers.push_back(disk);
        }
        cfg.num_pages = opts.hot_pool_pages;
    }
    if (!opts.fault_spec.empty()) {
        cfg.faults = opts.faultsOr("");
        if (opts.fault_seed_given)
            cfg.fault_seed = opts.fault_seed;
    }
    return cfg;
}

} // namespace

int
main(int argc, char** argv)
{
    const ServingOptions opts = ServingOptions::parse(argc, argv);
    net::ServerConfig sc;
    if (opts.help) {
        std::printf(
            "usage: bitdec_server [flags]\n\n"
            "Serves the framed protocol of docs/NETWORK.md until "
            "SIGINT/SIGTERM drains it.\n\nshared flags:\n%s\n"
            "server-only flags:\n"
            "  --max-inflight=<n>        admission cap (default %d)\n"
            "  --write-buffer-kb=<n>     per-connection backpressure "
            "watermark (default %zu)\n",
            ServingOptions::flagsHelp(), sc.max_inflight,
            sc.write_buffer_limit / 1024);
        return 0;
    }
    if (opts.maybeListBackends())
        return 0;

    sc.port = opts.port;
    for (int i = 1; i < argc; i++) {
        if (std::strncmp(argv[i], "--max-inflight=", 15) == 0)
            sc.max_inflight = intValue("--max-inflight", argv[i] + 15, 1);
        else if (std::strncmp(argv[i], "--write-buffer-kb=", 18) == 0)
            sc.write_buffer_limit =
                static_cast<std::size_t>(
                    intValue("--write-buffer-kb", argv[i] + 18)) *
                1024;
    }

    const backend::AttentionBackend& be =
        opts.resolveBackend("fused-paged");
    backend::requireServingCapable(be);
    if (!opts.fault_spec.empty() && opts.tier == "none")
        BITDEC_FATAL("--faults needs cold tiers to inject into; drop "
                     "--tier=none");

    const EngineConfig cfg = serverEngineConfig(opts, be.name());
    auto client = makeServingClient(sim::archA100(), model::llama2_7b(),
                                    cfg, opts.shards);

    net::ServerInfo info;
    info.backend = be.name();
    info.page_size = cfg.page_size;
    info.cache_head_dim = cfg.cache_head_dim;
    info.shards = opts.shards;

    net::installDrainSignalHandlers();
    net::Server server(*client, sc, info);
    std::printf("bitdec_server listening on %s:%d\n",
                sc.bind_host.c_str(), server.port());
    std::fflush(stdout);

    const ServingMetrics m = server.run();
    std::printf("%s\n", m.report().c_str());
    std::printf("peak write buffer %zu bytes, %ld busy rejections\n",
                server.peakWriteBuffer(), server.busyRejections());
    return 0;
}
