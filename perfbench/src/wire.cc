/**
 * @file
 * The wire workloads, chat and rag: real bitdec_server processes driven
 * over loopback through the product's net::NetClient.
 *
 * An untraced run spawns the server binary for each of its rounds
 * (chat five, rag nine) and reports medians over the rounds. A traced
 * run serves one round of the same engine shape from an in-process
 * net::Server: first plainly, then exactly the same requests again with
 * the ServingClient and attention backend behind the tracing decorators
 * of trace.h; the wall-time ratio of the two is the tracing overhead.
 *
 * Each run checks, outside its timed window: every request's TOKEN
 * stream folds to its DONE digest; the XOR of output_hash and of
 * attn_hash over a fixed sample of requests equals an in-process replay
 * of those requests; and the server's HELLO matches the in-process
 * replica's engine shape.
 */
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <memory>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "gpusim/arch.h"
#include "model/model_config.h"
#include "net/client.h"
#include "net/server.h"
#include "serving/client.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

std::atomic<int> g_server_pid{-1};

namespace {

using namespace bitdec;

constexpr const char* kHost = "127.0.0.1";

/** The CPUs the process was started on (read once, before any pinning). */
const cpu_set_t&
processCpus()
{
    static const cpu_set_t cpus = [] {
        cpu_set_t s;
        CPU_ZERO(&s);
        if (sched_getaffinity(0, sizeof(s), &s) != 0)
            CPU_ZERO(&s);
        return s;
    }();
    return cpus;
}

/** Lets the calling thread run on every CPU of processCpus() again. */
void
unpin()
{
    if (CPU_COUNT(&processCpus()) > 0)
        sched_setaffinity(0, sizeof(cpu_set_t), &processCpus());
}

/**
 * Pins the calling thread to the @p k-th CPU of processCpus()
 * (wrapping). The server gets CPU 0 and each client thread a CPU of
 * its own, so run-to-run numbers do not depend on where the scheduler
 * happened to put the threads.
 */
void
pinToCpu(int k)
{
    const cpu_set_t& allowed = processCpus();
    const int n = CPU_COUNT(&allowed);
    if (n <= 1)
        return;
    int want = k % n;
    for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        if (want-- == 0) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            sched_setaffinity(0, sizeof(one), &one);
            return;
        }
    }
}

// ------------------------------------------------------------ the replica

/**
 * The engine shape bitdec_server builds with its default flags
 * (fused-paged, 1 shard, host and disk tiers, 2048 hot pages). The
 * traced run serves from this replica; every run checks that the
 * spawned server's HELLO still agrees with it, so a change to the
 * server's defaults cannot silently split the two runs apart.
 */
serving::EngineConfig
replicaConfig(const std::string& backend)
{
    serving::EngineConfig cfg;
    cfg.page_size = 64;
    cfg.cache_head_dim = 4;
    cfg.sched.max_batch = 32;
    cfg.sched.prefill_chunk_tokens = 2048;
    cfg.backend = backend;
    kv::TierSpec host;
    host.name = "host";
    host.capacity_gb = 8.0;
    kv::TierSpec disk;
    disk.name = "disk";
    disk.capacity_gb = 64.0;
    disk.bandwidth_gbps = 4.0;
    disk.latency_s = 100e-6;
    cfg.tiered.tiers = {host, disk};
    cfg.num_pages = 2048;
    return cfg;
}

net::ServerInfo
replicaInfo()
{
    net::ServerInfo info;
    info.backend = "fused-paged";
    info.page_size = 64;
    info.cache_head_dim = 4;
    info.shards = 1;
    return info;
}

std::string
describe(const net::HelloMsg& h)
{
    return h.backend + "/page " + std::to_string(h.page_size) + "/dim " +
           std::to_string(h.cache_head_dim) + "/shards " +
           std::to_string(h.shards);
}

bool
sameShape(const net::HelloMsg& h, const net::ServerInfo& i)
{
    return h.backend == i.backend && h.page_size == i.page_size &&
           h.cache_head_dim == i.cache_head_dim && h.shards == i.shards;
}

// ------------------------------------------------------ the spawned server

/** One bitdec_server child process on an ephemeral loopback port. */
class SpawnedServer
{
  public:
    SpawnedServer() = default;
    ~SpawnedServer() { stop(); }
    SpawnedServer(const SpawnedServer&) = delete;
    SpawnedServer& operator=(const SpawnedServer&) = delete;

    /** Starts the binary and waits for its HELLO. @return "" or why not. */
    std::string start(const std::string& path)
    {
        int fds[2];
        if (pipe2(fds, O_CLOEXEC) != 0)
            return std::string("pipe2: ") + std::strerror(errno);
        const pid_t pid = fork();
        if (pid < 0)
            return std::string("fork: ") + std::strerror(errno);
        if (pid == 0) {
            // Child: die with the benchmark, report the port on stdout.
            prctl(PR_SET_PDEATHSIG, SIGTERM);
            pinToCpu(1);
            dup2(fds[1], STDOUT_FILENO);
            execl(path.c_str(), path.c_str(), "--port=0",
                  static_cast<char*>(nullptr));
            _exit(127);
        }
        pid_ = pid;
        g_server_pid.store(pid);
        ::close(fds[1]);
        out_fd_ = fds[0];

        // "bitdec_server listening on 127.0.0.1:<port>"
        std::string line;
        while (line.find('\n') == std::string::npos) {
            pollfd p{out_fd_, POLLIN, 0};
            if (poll(&p, 1, 30000) <= 0)
                return "bitdec_server printed no port within 30 s";
            char buf[256];
            const ssize_t n = read(out_fd_, buf, sizeof(buf));
            if (n <= 0)
                return "bitdec_server exited before listening (" + path +
                       ")";
            line.append(buf, static_cast<std::size_t>(n));
        }
        const std::size_t colon = line.rfind(':');
        port_ = colon == std::string::npos
                    ? 0
                    : std::atoi(line.c_str() + colon + 1);
        if (port_ <= 0)
            return "cannot parse the server's port from '" + line + "'";
        net::NetClient nc;
        if (!nc.connect(kHost, port_, 100, 20))
            return "bitdec_server sent no HELLO";
        hello_ = nc.hello();
        return {};
    }

    /** SIGTERM (graceful drain), then reap. @return the exit status. */
    int stop()
    {
        if (pid_ < 0)
            return 0;
        kill(pid_, SIGTERM);
        // Drain the child's stdout (its final report) so it never blocks
        // on a full pipe; give up and kill after 60 s.
        for (;;) {
            pollfd p{out_fd_, POLLIN, 0};
            if (poll(&p, 1, 60000) <= 0) {
                kill(pid_, SIGKILL);
                break;
            }
            char buf[4096];
            if (read(out_fd_, buf, sizeof(buf)) <= 0)
                break;
        }
        ::close(out_fd_);
        int status = 0;
        waitpid(pid_, &status, 0);
        g_server_pid.store(-1);
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status)
                                 : 128 + WTERMSIG(status);
    }

    int pid() const { return pid_; }
    int port() const { return port_; }
    const net::HelloMsg& hello() const { return hello_; }

  private:
    pid_t pid_ = -1;
    int out_fd_ = -1;
    int port_ = 0;
    net::HelloMsg hello_;
};

// ------------------------------------------------- the in-process server

/**
 * The replica served on a thread of this process. Traced, the engine
 * sits behind the tracing decorators; untraced, net::Server drives it
 * directly (the baseline the tracing overhead is measured against).
 */
class InProcessServer
{
  public:
    explicit InProcessServer(bool traced)
        : backend_(traced ? &TracedBackend::install(replicaInfo().backend)
                          : nullptr),
          engine_(serving::makeServingClient(
              sim::archA100(), model::llama2_7b(),
              replicaConfig(traced ? backend_->name()
                                   : replicaInfo().backend))),
          client_(*engine_, backend_)
    {
        if (backend_ != nullptr)
            backend_->reset();
        net::ServerConfig sc;
        sc.port = 0;
        sc.honor_signal_drain = false;
        server_ = std::make_unique<net::Server>(
            traced ? static_cast<serving::ServingClient&>(client_)
                   : *engine_,
            sc, replicaInfo());
        thread_ = std::thread([this] {
            pinToCpu(1);
            const double t0 = nowMs();
            timespec c0{}, c1{};
            clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c0);
            server_->run();
            clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c1);
            cpu_s_ = static_cast<double>(c1.tv_sec - c0.tv_sec) +
                     1e-9 * static_cast<double>(c1.tv_nsec - c0.tv_nsec);
            wall_ms_ = nowMs() - t0;
        });
    }
    ~InProcessServer() { stop(); }
    InProcessServer(const InProcessServer&) = delete;
    InProcessServer& operator=(const InProcessServer&) = delete;

    int port() const { return server_->port(); }

    /** Drains and joins the server thread (idempotent). */
    void stop()
    {
        if (!thread_.joinable())
            return;
        server_->requestDrain();
        thread_.join();
    }

    // Read after stop(); backend() only when traced.
    const TracedBackend& backend() const { return *backend_; }
    const TracedClient& client() const { return client_; }
    double cpuS() const { return cpu_s_; }
    double wallMs() const { return wall_ms_; }

  private:
    TracedBackend* backend_;
    std::unique_ptr<serving::ServingClient> engine_;
    TracedClient client_;
    std::unique_ptr<net::Server> server_;
    double cpu_s_ = 0;
    double wall_ms_ = 0;
    std::thread thread_; // last: started after everything it uses
};

// ------------------------------------------------------------ the client

/** Client-side record of one request (times in nowMs()). */
struct Rec
{
    int id = 0;
    int outputs = 0; //!< output tokens asked for
    double due = -1; //!< open loop: when it was due; closed: when sent
    double sent = -1;
    double ack = -1;
    double first = -1;
    double last = -1;
    double done = -1;
    int tokens = 0;
    bool finished = false;
    bool digest_ok = false;
    bool errored = false;
    std::uint64_t output_hash = 0;
    std::uint64_t attn_hash = 0;

    bool ok() const
    {
        return finished && digest_ok && !errored && tokens == outputs;
    }
};

/** Client-side counters of one connection (one thread). */
struct ConnStats
{
    long frames = 0;
    long bytes = 0;
    bool lost = false;      //!< connection died with requests outstanding
    std::string error;      //!< first unexpected ERROR frame
    SpanLog log;
};

/** Wire size of a decoded frame (re-encoded; encoding is canonical). */
std::size_t
frameBytes(const net::NetEvent& ev)
{
    switch (ev.type) {
    case net::FrameType::SubmitOk:
        return net::encodeSubmitOk(ev.request_id).size();
    case net::FrameType::Token:
        return net::encodeToken(ev.token).size();
    case net::FrameType::Done:
        return net::encodeDone(ev.done).size();
    case net::FrameType::Error:
        return net::encodeError(ev.error).size();
    case net::FrameType::StatsJson:
        return net::encodeStatsJson(ev.stats_json).size();
    default:
        return 0;
    }
}

net::SubmitMsg
toSubmit(const Shape& s)
{
    net::SubmitMsg m;
    m.id = s.id;
    m.arrival_s = -1; // "now" on the server's clock
    m.prompt_tokens = s.prompt_tokens;
    m.output_tokens = s.output_tokens;
    m.prefix_id = s.prefix_id;
    m.prefix_tokens = s.prefix_tokens;
    return m;
}

/**
 * Applies one server frame to its request, touching only the fields a
 * reader owns (the open loop's generator writes id, outputs, due and
 * sent). @return true when the frame ended the request (DONE, or an
 * ERROR tied to it).
 */
bool
apply(const net::NetClient& nc, const net::NetEvent& ev, Rec& r, double t,
      ConnStats& cs)
{
    switch (ev.type) {
    case net::FrameType::SubmitOk:
        r.ack = t;
        return false;
    case net::FrameType::Token:
        if (r.first < 0)
            r.first = t;
        r.last = t;
        r.tokens++;
        return false;
    case net::FrameType::Done:
        r.done = t;
        r.finished = ev.done.finished != 0;
        r.output_hash = ev.done.output_hash;
        r.attn_hash = ev.done.attn_hash;
        r.digest_ok = nc.streamDigestOk(ev.request_id);
        return true;
    case net::FrameType::Error:
        r.done = t;
        r.errored = true;
        if (cs.error.empty())
            cs.error = std::string(net::toString(ev.error.code)) + ": " +
                       ev.error.message;
        return true;
    default:
        return false;
    }
}

/** Counts a frame and, when traced, its bytes. */
void
countFrame(const net::NetEvent& ev, bool traced, ConnStats& cs)
{
    cs.frames++;
    if (traced)
        cs.bytes += static_cast<long>(frameBytes(ev));
}

/** Records a finished request's spans (traced runs only). */
void
requestSpans(const Rec& r, ConnStats& cs)
{
    const std::uint64_t root =
        cs.log.add("bench.request", r.due, r.done, 0, r.id);
    if (r.ack >= 0)
        cs.log.add("net.submit_ack", r.sent, r.ack, root, r.id);
    if (r.first >= 0)
        cs.log.add("net.first_token", r.sent, r.first, root, r.id);
}

/** What a phase gives back. */
struct PhaseResult
{
    std::vector<Rec> recs;
    std::vector<ConnStats> conns;
    double start_ms = 0;
    double end_ms = 0; //!< last request ended
    bool connect_failed = false;
};

/**
 * Closed loop: @p conns connections keep @p inflight requests in flight
 * in total, each issuing its next request when one ends, until the
 * @p count requests with ids from @p first_id have all been issued. A
 * fixed amount of work (not a fixed time) keeps the server's
 * per-request memory, which grows with every request served, the same
 * on every run of a seed.
 */
PhaseResult
closedLoop(Profile profile, std::uint64_t seed, int port, int conns,
           int inflight, int first_id, int count, bool traced)
{
    PhaseResult pr;
    pr.conns.resize(static_cast<std::size_t>(conns));
    std::vector<std::vector<Rec>> per(static_cast<std::size_t>(conns));
    std::atomic<int> next_id{first_id};
    std::atomic<bool> connect_failed{false};
    pr.start_ms = nowMs();

    auto worker = [&](int c) {
        ConnStats& cs = pr.conns[static_cast<std::size_t>(c)];
        std::vector<Rec>& recs = per[static_cast<std::size_t>(c)];
        std::unordered_map<int, std::size_t> slot;
        pinToCpu(2 + c);
        net::NetClient nc;
        if (!nc.connect(kHost, port)) {
            connect_failed = true;
            return;
        }
        int live = 0;
        auto issue = [&] {
            const int id = next_id.fetch_add(1);
            if (id >= first_id + count)
                return;
            const double t = nowMs();
            const Shape s = requestShape(profile, seed, id);
            Rec r;
            r.id = id;
            r.outputs = s.output_tokens;
            r.due = r.sent = t;
            slot[id] = recs.size();
            recs.push_back(r);
            if (nc.submit(toSubmit(s)))
                live++;
            else
                cs.lost = true;
        };
        const int window = inflight / conns + (c < inflight % conns ? 1 : 0);
        for (int i = 0; i < window; i++)
            issue();
        net::NetEvent ev;
        while (live > 0 && !cs.lost) {
            if (!nc.readEvent(ev)) {
                cs.lost = true;
                break;
            }
            const double t = nowMs();
            countFrame(ev, traced, cs);
            const auto it = slot.find(ev.request_id);
            if (it == slot.end())
                continue; // HELLO-time or STATS frames
            Rec& r = recs[it->second];
            if (apply(nc, ev, r, t, cs)) {
                live--;
                if (traced)
                    requestSpans(r, cs);
                issue();
            }
        }
    };

    std::vector<std::thread> threads;
    for (int c = 0; c < conns; c++)
        threads.emplace_back(worker, c);
    for (std::thread& t : threads)
        t.join();
    pr.end_ms = nowMs();
    pr.connect_failed = connect_failed;
    for (auto& v : per)
        pr.recs.insert(pr.recs.end(), v.begin(), v.end());
    return pr;
}

/**
 * Open loop: one generator thread sends each request when it is due
 * (Poisson at @p rate_per_s over @p duration_ms) round-robin over
 * @p conns connections, each read by its own thread.
 *
 * The generator and a reader share each NetClient: submit() only
 * writes to the socket and readEvent() only reads it. Either side
 * closes the client only once the connection is already dead, which
 * fails the run. Spans are recorded after both sides have joined.
 */
PhaseResult
openLoop(std::uint64_t seed, int port, int conns, double rate_per_s,
         double duration_ms, int first_id, bool traced)
{
    PhaseResult pr;
    const std::vector<double> due =
        poissonSchedule(seed, rate_per_s, duration_ms);
    pr.recs.resize(due.size());
    pr.conns.resize(static_cast<std::size_t>(conns));
    std::vector<std::unique_ptr<net::NetClient>> clients;
    for (int c = 0; c < conns; c++) {
        clients.push_back(std::make_unique<net::NetClient>());
        if (!clients.back()->connect(kHost, port)) {
            pr.connect_failed = true;
            return pr;
        }
    }
    std::vector<std::atomic<long>> submitted(static_cast<std::size_t>(conns));
    std::atomic<bool> generator_done{false};

    auto reader = [&](int c) {
        net::NetClient& nc = *clients[static_cast<std::size_t>(c)];
        ConnStats& cs = pr.conns[static_cast<std::size_t>(c)];
        pinToCpu(2 + c);
        long completed = 0;
        net::NetEvent ev;
        for (;;) {
            if (generator_done.load() &&
                completed == submitted[static_cast<std::size_t>(c)].load())
                return;
            if (!nc.readEvent(ev)) {
                cs.lost = true;
                return;
            }
            const double t = nowMs();
            countFrame(ev, traced, cs);
            const long idx = static_cast<long>(ev.request_id) - first_id;
            if (idx < 0 || idx >= static_cast<long>(pr.recs.size()))
                continue; // STATS_JSON wake-up
            if (apply(nc, ev, pr.recs[static_cast<std::size_t>(idx)], t, cs))
                completed++;
        }
    };
    std::vector<std::thread> readers;
    for (int c = 0; c < conns; c++)
        readers.emplace_back(reader, c);

    // The generator runs on the calling thread, on the CPU after the
    // readers'.
    pinToCpu(2 + conns);
    pr.start_ms = nowMs();
    const auto epoch = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < due.size(); i++) {
        std::this_thread::sleep_until(
            epoch + std::chrono::duration<double, std::milli>(due[i]));
        const int c = static_cast<int>(i % static_cast<std::size_t>(conns));
        const int id = first_id + static_cast<int>(i);
        const Shape s = requestShape(Profile::Chat, seed, id);
        Rec& r = pr.recs[i];
        r.id = id;
        r.outputs = s.output_tokens;
        r.due = pr.start_ms + due[i];
        r.sent = nowMs();
        if (!clients[static_cast<std::size_t>(c)]->submit(toSubmit(s)))
            break; // the reader sees the dead connection too
        submitted[static_cast<std::size_t>(c)]++;
    }
    generator_done = true;
    unpin();
    // Wake readers blocked on a connection whose requests all ended: a
    // STATS reply is one more frame to read.
    for (auto& nc : clients)
        nc->requestStats();
    for (std::thread& t : readers)
        t.join();
    pr.end_ms = nowMs();
    if (traced)
        for (std::size_t i = 0; i < pr.recs.size(); i++)
            if (pr.recs[i].done >= 0)
                requestSpans(pr.recs[i], pr.conns[i % pr.conns.size()]);
    return pr;
}

// ------------------------------------------------------------ reporting

/** The timing samples of a phase's successful requests. */
struct Samples
{
    std::vector<double> ttft, tpot, latency, ack_us, late_ms;
    long tokens = 0;
};

Samples
collect(const PhaseResult& pr)
{
    Samples s;
    for (const Rec& r : pr.recs) {
        if (r.id == 0)
            continue; // never sent (generator stopped on a dead conn)
        s.late_ms.push_back(r.sent - r.due);
        if (!r.ok())
            continue; // a failed request misses every percentile
        s.tokens += r.tokens;
        s.ttft.push_back(r.first - r.due);
        s.latency.push_back(r.done - r.due);
        const double tpot = tpotMs(r.first, r.last, r.tokens);
        if (tpot >= 0)
            s.tpot.push_back(tpot);
        if (r.ack >= 0)
            s.ack_us.push_back(1000.0 * (r.ack - r.sent));
    }
    return s;
}

void
notePct(Report& rep, const std::string& name, const std::vector<double>& v,
        double pct, const std::string& unit)
{
    const Pct p = tailPct(v, pct);
    rep.note(name, p.value, unit, p.n, p.pct);
}

void
addPct(Report& rep, const std::string& name, const std::vector<double>& v,
       double pct, const std::string& unit)
{
    const Pct p = tailPct(v, pct);
    rep.add(name, p.value, unit, p.n, p.pct);
}

/** Folds a phase's correctness into the report. */
void
checkPhase(Report& rep, const char* phase, const PhaseResult& pr)
{
    if (pr.connect_failed)
        rep.fail(std::string(phase) + ": cannot connect to the server");
    long bad_digest = 0, short_stream = 0, missing = 0;
    for (const Rec& r : pr.recs) {
        if (r.id == 0)
            continue;
        rep.attempted++;
        if (r.ok())
            continue;
        rep.failed++;
        if (r.errored)
            continue; // named by the ERROR frame text below
        if (r.done < 0)
            missing++;
        else if (!r.digest_ok)
            bad_digest++;
        else
            short_stream++;
    }
    for (const ConnStats& c : pr.conns) {
        if (c.lost)
            rep.fail(std::string(phase) + ": a connection died with "
                                          "requests outstanding");
        if (!c.error.empty())
            rep.fail(std::string(phase) + ": ERROR frame " + c.error);
    }
    if (bad_digest > 0)
        rep.fail(std::string(phase) + ": " + std::to_string(bad_digest) +
                 " TOKEN stream(s) do not fold to their DONE digest");
    if (short_stream > 0)
        rep.fail(std::string(phase) + ": " + std::to_string(short_stream) +
                 " request(s) finished short or canceled");
    if (missing > 0)
        rep.fail(std::string(phase) + ": " + std::to_string(missing) +
                 " request(s) never got DONE");
}

/**
 * Replays a fixed sample of the run's requests in-process (an engine
 * built from the HELLO shape, as `bitdec_client --verify-inprocess`
 * does) and compares the XOR of output_hash and of attn_hash.
 */
void
verifyReplay(Report& rep, Profile profile, std::uint64_t seed,
             const net::HelloMsg& hello, const std::vector<Rec>& recs,
             std::size_t sample)
{
    std::vector<const Rec*> ok;
    for (const Rec& r : recs)
        if (r.ok())
            ok.push_back(&r);
    std::sort(ok.begin(), ok.end(),
              [](const Rec* a, const Rec* b) { return a->id < b->id; });
    const std::size_t stride = std::max<std::size_t>(1, ok.size() / sample);
    serving::EngineConfig cfg;
    cfg.page_size = hello.page_size;
    cfg.cache_head_dim = hello.cache_head_dim;
    cfg.backend = hello.backend;
    auto local = serving::makeServingClient(
        sim::archA100(), model::llama2_7b(), cfg,
        hello.shards > 0 ? hello.shards : 1);
    std::uint64_t wire_out = 0, wire_attn = 0;
    std::vector<int> ids;
    for (std::size_t i = 0; i < ok.size(); i += stride) {
        const Rec& r = *ok[i];
        const Shape s = requestShape(profile, seed, r.id);
        serving::Request q;
        q.id = s.id;
        q.arrival_s = 0;
        q.prompt_tokens = s.prompt_tokens;
        q.output_tokens = s.output_tokens;
        q.prefix_id = s.prefix_id;
        q.prefix_tokens = s.prefix_tokens;
        local->submit(q);
        ids.push_back(r.id);
        wire_out ^= r.output_hash;
        wire_attn ^= r.attn_hash;
    }
    local->drain();
    std::uint64_t local_out = 0, local_attn = 0;
    for (const int id : ids) {
        const serving::Request* l = local->poll(id);
        if (l == nullptr ||
            l->state != serving::RequestState::Finished) {
            rep.fail("in-process replay did not finish request " +
                     std::to_string(id));
            return;
        }
        local_out ^= l->output_hash;
        local_attn ^= l->attn_hash;
    }
    rep.note("check.replayed_requests", static_cast<double>(ids.size()),
             "count");
    if (ids.empty() && !recs.empty())
        rep.fail("no request finished, nothing to replay");
    if (local_out != wire_out || local_attn != wire_attn)
        rep.fail("wire digests differ from the in-process replay over " +
                 std::to_string(ids.size()) + " sampled requests");
}

/** STATS_JSON of a live server (a connection of its own). */
std::string
fetchStats(int port)
{
    net::NetClient nc;
    if (!nc.connect(kHost, port) || !nc.requestStats())
        return {};
    net::NetEvent ev;
    while (nc.readEvent(ev))
        if (ev.type == net::FrameType::StatsJson)
            return ev.stats_json;
    return {};
}

/** Starts @p srv and checks its HELLO against the replica.
 *  @return the set-up time (fork to HELLO) in seconds. */
double
spawnSetup(const Options& opts, SpawnedServer& srv, Report& rep)
{
    const double t0 = nowMs();
    const std::string err = srv.start(opts.server_path);
    if (!err.empty()) {
        rep.fail(err);
        return 0;
    }
    const double setup_s = (nowMs() - t0) / 1000.0;
    if (!sameShape(srv.hello(), replicaInfo()))
        rep.fail("config drift: bitdec_server HELLO (" +
                 describe(srv.hello()) +
                 ") differs from the in-process replica");
    return setup_s;
}

// ------------------------------------------------------------ workloads

/** The shape of one wire workload. */
struct WireSpec
{
    Profile profile;
    double paced_rate; //!< open-loop req/s before the closed loop; 0 = none
    int conns;         //!< connections (and client threads), <= nproc
    int inflight;      //!< closed-loop requests in flight
    int rounds;        //!< fresh servers per untraced run (medians over them)
    //! Closed-loop requests per second of the clock it gets: sized so
    //! that, on a 4-core AVX-512 host, the closed loop lasts about as
    //! long as its share of --seconds.
    double closed_per_s;
    std::size_t replay_sample;
    const char* name;
};

// chat: five rounds, each on a fresh server, paced at 800 req/s (two
// readers and the generator) for half the round, then saturated. It is
// not in BENCHMARK.json: its loopback wake-ups and the server's scan of
// every request ever served swing with the host's load far more than a
// gate allows (perfbench/README.md). rag: nine closed-loop rounds, each
// on a fresh server. On a 4-vCPU KVM guest one server process keeps a
// speed of its own (the same seed ran 10-20% apart from process to
// process, each steady for its whole run), so one long round measured
// the process it happened to get; the median over nine does not.
constexpr WireSpec kChat{Profile::Chat, 800.0, 3, 48, 5, 4000.0, 64, "chat"};
constexpr WireSpec kRag{Profile::Rag, 0.0, 3, 32, 9, 50.0, 16, "rag"};

/** Both phases of one round against a server on @p port. */
struct Pass
{
    PhaseResult paced; //!< empty when the workload has no open loop
    PhaseResult closed;
};

/** One round of @p seconds; request ids start at @p first_id. */
Pass
runPass(const WireSpec& w, const Options& opts, int port, double seconds,
        int first_id, bool traced)
{
    Pass p;
    double closed_s = seconds;
    int first_closed = first_id;
    if (w.paced_rate > 0) {
        closed_s /= 2;
        // One thread fewer than the closed loop: the generator is one.
        p.paced = openLoop(opts.seed, port, w.conns - 1, w.paced_rate,
                           closed_s * 1000.0, first_id, traced);
        first_closed += static_cast<int>(p.paced.recs.size());
    }
    const int count =
        std::max(w.inflight, static_cast<int>(w.closed_per_s * closed_s));
    p.closed = closedLoop(w.profile, opts.seed, port, w.conns, w.inflight,
                          first_closed, count, traced);
    return p;
}

/** Distinct content per round: round r uses ids from 1 + r * kIdStride. */
constexpr int kIdStride = 1000000;

/** Output tokens per wall second of a round's closed loop. */
double
closedTokensPerS(const Pass& p)
{
    return static_cast<double>(collect(p.closed).tokens) /
           ((p.closed.end_ms - p.closed.start_ms) / 1000.0);
}

/** The samples the latency metrics come from: the paced phase when
 *  there is one (chat), else the closed loop (rag). */
const PhaseResult&
latencyPhase(const WireSpec& w, const Pass& p)
{
    return w.paced_rate > 0 ? p.paced : p.closed;
}

/** End-to-end metrics of the untraced rounds (medians over rounds). */
void
reportEndToEnd(Report& rep, const WireSpec& w,
               const std::vector<Pass>& rounds,
               const std::vector<double>& setup_s,
               const std::vector<double>& rss_mb)
{
    std::vector<double> tps, ttft50, tpot50, lat50;
    Samples pooled, closed_pooled;
    auto append = [](std::vector<double>& to, const std::vector<double>& v) {
        to.insert(to.end(), v.begin(), v.end());
    };
    for (const Pass& p : rounds) {
        const Samples lat = collect(latencyPhase(w, p));
        const Samples closed = collect(p.closed);
        tps.push_back(closedTokensPerS(p));
        ttft50.push_back(median(lat.ttft));
        tpot50.push_back(median(lat.tpot));
        lat50.push_back(median(lat.latency));
        append(pooled.ttft, lat.ttft);
        append(pooled.tpot, lat.tpot);
        append(pooled.latency, lat.latency);
        append(pooled.late_ms, lat.late_ms);
        append(closed_pooled.latency, closed.latency);
    }
    // Several rounds: the median of the per-round medians. One round:
    // the median over its requests.
    const std::size_t n = rounds.size();
    auto gate = [&](const char* name, const std::vector<double>& per_round,
                    const std::vector<double>& all) {
        if (n == 1)
            addPct(rep, name, all, 50, "ms");
        else
            rep.add(name, median(per_round), "ms", n);
    };
    rep.add("setup_s", median(setup_s), "s", setup_s.size());
    rep.add("tokens_per_s", median(tps), "tokens/s", n);
    gate("ttft_p50_ms", ttft50, pooled.ttft);
    gate("tpot_p50_ms", tpot50, pooled.tpot);
    gate("latency_p50_ms", lat50, pooled.latency);
    rep.add("peak_rss_mb", median(rss_mb), "MB", n);

    // Tails pooled over every round.
    notePct(rep, "ttft_p90_ms", pooled.ttft, 90, "ms");
    notePct(rep, "ttft_p99_ms", pooled.ttft, 99, "ms");
    notePct(rep, "tpot_p90_ms", pooled.tpot, 90, "ms");
    notePct(rep, "latency_p99_ms", pooled.latency, 99, "ms");
    if (w.paced_rate > 0) {
        notePct(rep, "bench.generator_late_ms_p99", pooled.late_ms, 99,
                "ms");
        rep.note("paced.rate", w.paced_rate, "req/s");
        notePct(rep, "saturated.latency_p50_ms", closed_pooled.latency, 50,
                 "ms");
    }
    rep.note("rounds", static_cast<double>(n), "servers");
    rep.note("closed.requests_per_round",
             static_cast<double>(rounds.front().closed.recs.size()),
             "count");
    std::vector<double> closed_s;
    for (const Pass& p : rounds)
        closed_s.push_back((p.closed.end_ms - p.closed.start_ms) / 1000.0);
    rep.note("closed.seconds_per_round", median(closed_s), "s", n);
    rep.note("closed.inflight", w.inflight, "requests");
}

/** Per-layer metrics of the traced pass. */
void
reportLayers(Report& rep, const WireSpec& w, const Pass& p,
             const InProcessServer& srv, const std::string& stats,
             double overhead)
{
    const TracedClient& cl = srv.client();
    const TracedBackend& be = srv.backend();

    // net
    std::vector<double> ack_us;
    long frames = 0, bytes = 0;
    for (const PhaseResult* pr : {&p.paced, &p.closed}) {
        const Samples s = collect(*pr);
        ack_us.insert(ack_us.end(), s.ack_us.begin(), s.ack_us.end());
        for (const ConnStats& c : pr->conns) {
            frames += c.frames;
            bytes += c.bytes;
        }
    }
    addPct(rep, "net.submit_ack_us_p50", ack_us, 50, "us");
    // Server-thread CPU minus the CPU inside ServingClient calls, with
    // the token sink (net code called back from streamTick) counted as
    // net.
    rep.add("net.loop_self_cpu_s",
            srv.cpuS() - cl.client_cpu_s + cl.sink_ms / 1000.0, "s");
    rep.add("net.frames_rx", static_cast<double>(frames), "count");
    rep.add("net.bytes_rx", static_cast<double>(bytes), "bytes");

    // serving. The decile means cover the closed loop only (for chat,
    // its saturated phase), so they compare like with like.
    const std::vector<double>& ticks = cl.tick_ms;
    std::vector<double> tick_us, closed_us;
    for (std::size_t i = 0; i < ticks.size(); i++) {
        tick_us.push_back(1000.0 * ticks[i]);
        if (cl.tick_start_ms[i] >= p.closed.start_ms)
            closed_us.push_back(1000.0 * ticks[i]);
    }
    const std::size_t tenth = std::max<std::size_t>(1, closed_us.size() / 10);
    const std::size_t cut = std::min(tenth, closed_us.size());
    const std::vector<double> first(
        closed_us.begin(),
        closed_us.begin() + static_cast<std::ptrdiff_t>(cut));
    const std::vector<double> last(
        closed_us.end() - static_cast<std::ptrdiff_t>(cut), closed_us.end());
    double tick_total_ms = 0;
    for (double t : ticks)
        tick_total_ms += t;
    std::vector<double> submit_us;
    for (double t : cl.submit_ms)
        submit_us.push_back(1000.0 * t);
    rep.add("serving.tick_count", static_cast<double>(ticks.size()), "count");
    addPct(rep, "serving.tick_us_p50", tick_us, 50, "us");
    addPct(rep, "serving.tick_us_p99", tick_us, 99, "us");
    rep.add("serving.tick_us_first_decile", mean(first), "us", first.size());
    rep.add("serving.tick_us_last_decile", mean(last), "us", last.size());
    rep.add("serving.tick_busy_share",
            srv.wallMs() > 0 ? tick_total_ms / srv.wallMs() : 0, "ratio");
    addPct(rep, "serving.submit_us_p50", submit_us, 50, "us");
    rep.add("serving.tokens_per_tick",
            ticks.empty() ? 0
                          : static_cast<double>(cl.tokens) /
                                static_cast<double>(ticks.size()),
            "tokens");
    rep.add("serving.preemptions", jsonNumber(stats, "preemptions"), "count");
    rep.add("serving.avg_decode_batch", jsonNumber(stats, "avg_decode_batch"),
            "items");
    rep.add("serving.shed_requests", jsonNumber(stats, "shed_requests"),
            "count");

    // kvcache (counts and ratios only; no virtual-time field)
    rep.add("kvcache.prefix_hit_rate", jsonNumber(stats, "prefix_hit_rate"),
            "ratio");
    rep.add("kvcache.avg_page_utilization",
            jsonNumber(stats, "avg_page_utilization"), "ratio");
    rep.add("kvcache.offloaded_pages", jsonNumber(stats, "offloaded_pages"),
            "count");
    rep.add("kvcache.fetched_pages", jsonNumber(stats, "fetched_pages"),
            "count");
    const double prefetched = jsonNumber(stats, "prefetched_pages");
    rep.add("kvcache.prefetch_hit_ratio",
            prefetched > 0 ? jsonNumber(stats, "prefetch_hits") / prefetched
                           : 0,
            "ratio");
    rep.add("kvcache.cold_resumes", jsonNumber(stats, "cold_resumes"),
            "count");
    rep.add("kvcache.recompute_resumes",
            jsonNumber(stats, "recompute_resumes"), "count");

    // backend
    long items = 0;
    double decode_total_ms = 0;
    std::vector<double> per_item_us;
    for (std::size_t i = 0; i < be.call_ms.size(); i++) {
        items += be.call_items[i];
        decode_total_ms += be.call_ms[i];
        per_item_us.push_back(1000.0 * be.call_ms[i] / be.call_items[i]);
    }
    rep.add("backend.decode_calls", static_cast<double>(be.call_ms.size()),
            "count");
    rep.add("backend.items_per_call",
            be.call_ms.empty() ? 0
                               : static_cast<double>(items) /
                                     static_cast<double>(be.call_ms.size()),
            "items");
    addPct(rep, "backend.decode_us_per_item_p50", per_item_us, 50, "us");
    rep.add("backend.decode_share_of_tick",
            tick_total_ms > 0 ? decode_total_ms / tick_total_ms : 0, "ratio");

    // bench
    if (w.paced_rate > 0)
        notePct(rep, "bench.generator_late_ms_p99", collect(p.paced).late_ms,
                99, "ms");
    rep.add("bench.trace_overhead_ratio", overhead, "ratio");
}

Report
runWire(const WireSpec& w, const Options& opts)
{
    Report rep;
    processCpus(); // before any thread is pinned
    rep.facts.push_back({"server", "bitdec_server --port=0 (defaults)"});
    std::vector<Rec> all; // every request, for the replay check

    if (!opts.trace) {
        const double round_s = opts.seconds / w.rounds;
        std::vector<Pass> rounds;
        std::vector<double> setup_s, rss_mb;
        net::HelloMsg hello;
        // Set-up (a 3 ms process start) is timed at least nine times:
        // every round's server, plus spare starts.
        for (int i = w.rounds; i < 9; i++) {
            SpawnedServer spare;
            setup_s.push_back(spawnSetup(opts, spare, rep));
            if (spare.stop() != 0)
                rep.fail("bitdec_server did not drain cleanly");
        }
        std::string stats;
        for (int r = 0; r < w.rounds && rep.correct(); r++) {
            SpawnedServer srv;
            setup_s.push_back(spawnSetup(opts, srv, rep));
            if (!rep.correct())
                break;
            hello = srv.hello();
            rounds.push_back(runPass(w, opts, srv.port(), round_s,
                                     1 + r * kIdStride, false));
            rss_mb.push_back(peakRssMb(srv.pid()));
            stats = fetchStats(srv.port());
            const int status = srv.stop();
            if (status != 0)
                rep.fail("bitdec_server exited with status " +
                         std::to_string(status));
            const Pass& p = rounds.back();
            if (w.paced_rate > 0)
                checkPhase(rep, "paced", p.paced);
            checkPhase(rep, "closed", p.closed);
            all.insert(all.end(), p.paced.recs.begin(), p.paced.recs.end());
            all.insert(all.end(), p.closed.recs.begin(), p.closed.recs.end());
        }
        if (!rep.correct())
            return rep;
        rep.facts.push_back({"hello", describe(hello)});
        reportEndToEnd(rep, w, rounds, setup_s, rss_mb);
        rep.note("last_round.preemptions", jsonNumber(stats, "preemptions"),
                 "count");
        rep.note("last_round.prefix_hit_rate",
                 jsonNumber(stats, "prefix_hit_rate"), "ratio");
        verifyReplay(rep, w.profile, opts.seed, hello, all, w.replay_sample);
        return rep;
    }

    // Traced: one round. The drift check needs one spawned server; then
    // an untraced in-process round and a traced one serve the same
    // requests, and their closed-loop wall-time ratio is the cost of the
    // decorators alone (the paced phase lasts its schedule either way).
    {
        SpawnedServer spawned;
        spawnSetup(opts, spawned, rep);
        if (spawned.stop() != 0)
            rep.fail("bitdec_server did not drain cleanly");
    }
    if (!rep.correct())
        return rep;
    const double round_s = std::min(opts.seconds / w.rounds,
                                    0.4 * opts.seconds);
    Pass base;
    {
        InProcessServer plain(false);
        base = runPass(w, opts, plain.port(), round_s, 1, false);
    }
    if (w.paced_rate > 0)
        checkPhase(rep, "untraced paced", base.paced);
    checkPhase(rep, "untraced closed", base.closed);
    InProcessServer srv(true);
    const Pass traced = runPass(w, opts, srv.port(), round_s, 1, true);
    const std::string stats = fetchStats(srv.port());
    srv.stop();
    if (w.paced_rate > 0)
        checkPhase(rep, "traced paced", traced.paced);
    checkPhase(rep, "traced closed", traced.closed);

    const double base_ms = base.closed.end_ms - base.closed.start_ms;
    const double traced_ms = traced.closed.end_ms - traced.closed.start_ms;
    reportLayers(rep, w, traced, srv, stats,
                 base_ms > 0 ? traced_ms / base_ms : 0);

    all = traced.paced.recs;
    all.insert(all.end(), traced.closed.recs.begin(),
               traced.closed.recs.end());
    net::HelloMsg hello;
    const net::ServerInfo info = replicaInfo();
    hello.backend = info.backend;
    hello.page_size = info.page_size;
    hello.cache_head_dim = info.cache_head_dim;
    hello.shards = info.shards;
    verifyReplay(rep, w.profile, opts.seed, hello, all, w.replay_sample);

    if (!opts.out_dir.empty()) {
        std::vector<const SpanLog*> logs = {&srv.client().log,
                                            &srv.backend().log};
        for (const PhaseResult* pr : {&traced.paced, &traced.closed})
            for (const ConnStats& c : pr->conns)
                logs.push_back(&c.log);
        const std::string path =
            opts.out_dir + "/spans-" + w.name + ".jsonl";
        if (writeSpans(path, logs))
            rep.facts.push_back({"spans", path});
        else
            rep.fail("cannot write " + path);
    }
    return rep;
}

} // namespace

Report
runChat(const Options& opts)
{
    return runWire(kChat, opts);
}

Report
runRag(const Options& opts)
{
    return runWire(kRag, opts);
}

} // namespace perfbench
