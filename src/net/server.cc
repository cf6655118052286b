#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "backend/registry.h"
#include "common/logging.h"
#include "net/drain.h"
#include "serving/request.h"

namespace bitdec::net {

namespace {

void
setNonBlocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    BITDEC_ASSERT(flags >= 0, "fcntl(F_GETFL) failed: ",
                  std::strerror(errno));
    BITDEC_ASSERT(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                  "fcntl(F_SETFL, O_NONBLOCK) failed: ",
                  std::strerror(errno));
}

/** The registry's fail-fast text for an unknown backend name. */
std::string
unknownBackendMessage(const std::string& name)
{
    std::string known;
    for (const std::string& n :
         backend::BackendRegistry::instance().names()) {
        if (!known.empty())
            known += ", ";
        known += n;
    }
    return detail::concat("unknown attention backend '", name,
                          "' (registered: ", known, ")");
}

} // namespace

Server::Server(serving::ServingClient& client, const ServerConfig& cfg,
               const ServerInfo& info)
    : client_(client), cfg_(cfg), info_(info)
{
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    BITDEC_ASSERT(listen_fd_ >= 0, "socket() failed: ",
                  std::strerror(errno));
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
    if (inet_pton(AF_INET, cfg_.bind_host.c_str(), &addr.sin_addr) != 1)
        BITDEC_FATAL("cannot parse bind host '", cfg_.bind_host, "'");
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0)
        BITDEC_FATAL("cannot bind ", cfg_.bind_host, ":", cfg_.port, ": ",
                     std::strerror(errno));
    BITDEC_ASSERT(listen(listen_fd_, cfg_.backlog) == 0,
                  "listen() failed: ", std::strerror(errno));
    setNonBlocking(listen_fd_);

    sockaddr_in bound = {};
    socklen_t len = sizeof(bound);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
}

Server::~Server()
{
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
    for (const auto& c : conns_)
        if (c->fd >= 0)
            ::close(c->fd);
}

bool
Server::drainingNow() const
{
    return drain_.load(std::memory_order_relaxed) ||
           (cfg_.honor_signal_drain && drainRequested());
}

bool
Server::overWatermark() const
{
    for (const auto& c : conns_)
        if (c->out.size() >= cfg_.write_buffer_limit)
            return true;
    return false;
}

void
Server::enqueue(Conn& c, const std::string& bytes)
{
    c.out.append(bytes);
    std::size_t peak = peak_write_buffer_.load(std::memory_order_relaxed);
    while (c.out.size() > peak &&
           !peak_write_buffer_.compare_exchange_weak(
               peak, c.out.size(), std::memory_order_relaxed))
        ;
}

void
Server::sendError(Conn& c, std::int32_t id, ErrorCode code,
                  const std::string& message)
{
    ErrorMsg e;
    e.request_id = id;
    e.code = code;
    e.message = message;
    enqueue(c, encodeError(e));
}

void
Server::acceptNew()
{
    for (;;) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN (or transient error): nothing more to accept
        setNonBlocking(fd);
        if (cfg_.so_sndbuf > 0)
            setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg_.so_sndbuf,
                       sizeof(cfg_.so_sndbuf));
        auto c = std::make_unique<Conn>();
        c->fd = fd;
        HelloMsg h;
        h.backend = info_.backend;
        h.page_size = info_.page_size;
        h.cache_head_dim = info_.cache_head_dim;
        h.shards = info_.shards;
        enqueue(*c, encodeHello(h));
        conns_.push_back(std::move(c));
    }
}

void
Server::handleSubmit(Conn& c, const std::string& payload)
{
    SubmitMsg m;
    if (!decodeSubmit(payload, m)) {
        sendError(c, 0, ErrorCode::BadFrame, "malformed SUBMIT payload");
        c.closing = true;
        return;
    }
    if (drainingNow()) {
        sendError(c, m.id, ErrorCode::Draining,
                  "server is draining, not accepting new requests");
        return;
    }
    if (inflight_ >= cfg_.max_inflight) {
        busy_rejections_++;
        sendError(c, m.id, ErrorCode::Busy,
                  detail::concat("server is at its admission cap (",
                                 cfg_.max_inflight,
                                 " requests in flight), retry later"));
        return;
    }
    if (!m.backend.empty()) {
        // Typed twin of the CLI's fail-fast resolve: unknown names get
        // the registry's exact message; a known-but-different backend
        // cannot be honored mid-run (one engine, one backend).
        if (backend::BackendRegistry::instance().find(m.backend) ==
            nullptr) {
            sendError(c, m.id, ErrorCode::UnknownBackend,
                      unknownBackendMessage(m.backend));
            return;
        }
        if (m.backend != info_.backend) {
            sendError(c, m.id, ErrorCode::InvalidRequest,
                      detail::concat("server runs attention backend '",
                                     info_.backend,
                                     "', cannot serve a request for '",
                                     m.backend, "'"));
            return;
        }
    }

    serving::Request r;
    r.id = m.id;
    r.arrival_s = m.arrival_s >= 0
                      ? m.arrival_s
                      : std::max(client_.streamClock(), 0.0);
    r.prompt_tokens = m.prompt_tokens;
    r.output_tokens = m.output_tokens;
    r.prefix_id = m.prefix_id;
    r.prefix_tokens = m.prefix_tokens;
    r.priority = m.priority;
    r.idle_after_tokens = m.idle_after_tokens;
    r.idle_wake_s = m.idle_wake_s;
    r.deadline_s = m.deadline_s;

    const std::string err = client_.admissionError(r);
    if (!err.empty()) {
        // Same fail-fast message the in-process CLI dies with, as a
        // typed frame: duplicate ids and impossible-fit requests get
        // their own codes so clients can react without parsing text.
        ErrorCode code = ErrorCode::InvalidRequest;
        if (err.find("duplicate request id") != std::string::npos)
            code = ErrorCode::DuplicateId;
        else if (err.find("can never fit") != std::string::npos)
            code = ErrorCode::OverCapacity;
        sendError(c, m.id, code, err);
        return;
    }

    client_.streamSubmit(r);
    c.live.insert(m.id);
    c.owned.insert(m.id);
    conn_of_[m.id] = &c;
    inflight_++;
    enqueue(c, encodeSubmitOk(m.id));
}

void
Server::handleFrame(Conn& c, FrameType type, const std::string& payload)
{
    switch (type) {
    case FrameType::Submit:
        handleSubmit(c, payload);
        return;
    case FrameType::Cancel: {
        std::int32_t id = 0;
        if (!decodeCancel(payload, id)) {
            sendError(c, 0, ErrorCode::BadFrame,
                      "malformed CANCEL payload");
            c.closing = true;
            return;
        }
        if (c.owned.count(id) == 0) {
            sendError(c, id, ErrorCode::UnknownId,
                      detail::concat("request ", id,
                                     " was never submitted on this "
                                     "connection"));
            return;
        }
        // live and canceled -> DONE follows; already done -> the DONE
        // frame is on its way and the cancel simply lost the race. No
        // error either way.
        if (c.live.count(id) > 0)
            client_.streamCancel(id);
        return;
    }
    case FrameType::Stats:
        enqueue(c, encodeStatsJson(client_.streamSnapshot().toJson()));
        return;
    default:
        sendError(c, 0, ErrorCode::BadFrame,
                  detail::concat("unexpected frame type ",
                                 static_cast<int>(type)));
        c.closing = true;
        return;
    }
}

void
Server::readFrom(Conn& c)
{
    char buf[65536];
    for (;;) {
        const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            c.in.feed(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        // EOF or hard error: stop reading; pending output still flushes,
        // live requests are canceled by dropConn once flushed/overdue.
        c.closing = true;
        break;
    }
    FrameType type;
    std::string payload;
    while (!c.closing && c.in.next(type, payload))
        handleFrame(c, type, payload);
    if (c.in.bad() && !c.closing) {
        sendError(c, 0, ErrorCode::BadFrame,
                  "oversized or corrupt frame; closing connection");
        c.closing = true;
    }
}

void
Server::flush(Conn& c)
{
    while (!c.out.empty()) {
        const ssize_t n =
            send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (n > 0) {
            c.out.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        c.out.clear(); // peer is gone; drop the backlog
        c.closing = true;
        return;
    }
}

void
Server::emitFinished()
{
    for (const auto& c : conns_) {
        for (auto it = c->live.begin(); it != c->live.end();) {
            const serving::Request* r = client_.poll(*it);
            BITDEC_ASSERT(r != nullptr, "live id ", *it,
                          " unknown to the serving client");
            if (!r->done()) {
                ++it;
                continue;
            }
            DoneMsg d;
            d.request_id = r->id;
            d.finished =
                r->state == serving::RequestState::Finished ? 1 : 0;
            d.cancel_cause = static_cast<std::uint8_t>(r->cancel_cause);
            d.generated = r->generated;
            d.output_hash = r->output_hash;
            d.attn_hash = r->attn_hash;
            d.first_token_s = r->first_token_s;
            d.finish_s = r->finish_s;
            enqueue(*c, encodeDone(d));
            conn_of_.erase(r->id);
            inflight_--;
            it = c->live.erase(it);
        }
    }
}

void
Server::pump()
{
    // Whole-pump backpressure: the engine's virtual clock is shared by
    // every request, so one slow reader over its write watermark pauses
    // the tick for everyone — bounded buffering beats fairness here,
    // and the pause lifts the moment the reader drains. The check runs
    // before every tick, so a connection overshoots its limit by at
    // most one tick's worth of token frames.
    for (int i = 0; i < cfg_.ticks_per_round; i++) {
        if (overWatermark() || client_.streamIdle())
            break;
        if (!client_.streamTick())
            break;
    }
    emitFinished();
}

void
Server::dropConn(std::size_t idx)
{
    Conn& c = *conns_[idx];
    // A vanished client cannot read its tokens: cancel its in-flight
    // requests so the engine stops spending budget on them.
    for (const int id : c.live) {
        client_.streamCancel(id);
        conn_of_.erase(id);
        inflight_--;
    }
    c.live.clear();
    ::close(c.fd);
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(idx));
}

serving::ServingMetrics
Server::run()
{
    client_.streamBegin([this](const serving::TokenEvent& ev) {
        const auto it = conn_of_.find(ev.request_id);
        if (it == conn_of_.end())
            return; // connection dropped mid-step; request is canceling
        TokenMsg t;
        t.request_id = ev.request_id;
        t.index = ev.index;
        t.fold = ev.fold;
        t.output_hash = ev.output_hash;
        t.clock_s = ev.clock_s;
        enqueue(*it->second, encodeToken(t));
    });

    inform("net: serving on ", cfg_.bind_host, ":", port_, " (backend ",
           info_.backend, ", ", info_.shards, " shard",
           info_.shards == 1 ? "" : "s", ")");

    bool announced_drain = false;
    for (;;) {
        const bool draining = drainingNow();
        if (draining && !announced_drain) {
            announced_drain = true;
            inform("net: drain requested — finishing ", inflight_,
                   " in-flight request", inflight_ == 1 ? "" : "s");
        }

        // Drain exit: nothing in flight, nothing buffered.
        if (draining && inflight_ == 0) {
            bool flushed = true;
            for (const auto& c : conns_)
                if (!c->out.empty())
                    flushed = false;
            if (flushed)
                break;
        }

        std::vector<pollfd> fds;
        fds.reserve(conns_.size() + 1);
        if (!draining)
            fds.push_back({listen_fd_, POLLIN, 0});
        for (const auto& c : conns_) {
            short ev = c->closing ? 0 : POLLIN;
            if (!c->out.empty())
                ev |= POLLOUT;
            fds.push_back({c->fd, ev, 0});
        }

        // Work to pump and room to buffer it: don't sleep in poll.
        const bool work_pending = !client_.streamIdle() && !overWatermark();
        const int timeout = work_pending ? 0 : cfg_.poll_interval_ms;
        poll(fds.data(), fds.size(), timeout); // EINTR: loop handles it

        std::size_t fi = 0;
        if (!draining) {
            if (fds[fi].revents & POLLIN)
                acceptNew();
            fi++;
        }
        // Only the connections that were polled: acceptNew() may have
        // appended one past the end of fds.
        const std::size_t polled = fds.size() - fi;
        for (std::size_t i = 0; i < polled; i++, fi++) {
            if (fds[fi].revents & (POLLIN | POLLHUP | POLLERR))
                if (!conns_[i]->closing)
                    readFrom(*conns_[i]);
        }

        pump();

        for (auto& c : conns_)
            flush(*c);

        for (std::size_t i = conns_.size(); i-- > 0;) {
            Conn& c = *conns_[i];
            if (c.closing && c.out.empty())
                dropConn(i);
        }
    }

    for (std::size_t i = conns_.size(); i-- > 0;)
        dropConn(i);
    const serving::ServingMetrics m = client_.streamEnd();
    inform("net: drained — ", m.num_requests, " requests served");
    return m;
}

} // namespace bitdec::net
