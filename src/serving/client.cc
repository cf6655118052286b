#include "serving/client.h"

#include "common/logging.h"

namespace bitdec::serving {

namespace {

/** Fresh runtime state: a submit carries only the workload fields. */
Request
sanitized(const Request& r)
{
    Request c;
    c.id = r.id;
    c.arrival_s = r.arrival_s;
    c.prompt_tokens = r.prompt_tokens;
    c.output_tokens = r.output_tokens;
    c.prefix_id = r.prefix_id;
    c.prefix_tokens = r.prefix_tokens;
    c.priority = r.priority;
    c.idle_after_tokens = r.idle_after_tokens;
    c.idle_wake_s = r.idle_wake_s;
    c.deadline_s = r.deadline_s;
    return c;
}

} // namespace

int
ServingClient::submit(const Request& r)
{
    if (!batch_open_) {
        streamBegin();
        batch_open_ = true;
    }
    return streamSubmit(r);
}

bool
ServingClient::cancel(int id)
{
    // Outside the helper stream every request has run (or was never
    // submitted): nothing is left to cancel.
    return batch_open_ && streamCancel(id);
}

ServingMetrics
ServingClient::drain()
{
    if (!batch_open_)
        return ServingMetrics{};
    while (streamTick()) {
    }
    batch_open_ = false;
    return streamEnd();
}

Admission
ServingClient::admission(const Request& r) const
{
    std::string message = admissionError(r);
    return {message.empty() ? AdmissionCode::Ok : AdmissionCode::Invalid,
            std::move(message)};
}

EngineClient::EngineClient(const sim::GpuArch& arch,
                           const model::ModelConfig& model,
                           const EngineConfig& cfg)
    : engine_(arch, model, cfg)
{
}

const Request*
EngineClient::poll(int id) const
{
    const auto it = index_.find(id);
    return it == index_.end() ? nullptr : &store_[it->second];
}

ClientStats
EngineClient::stats() const
{
    ClientStats s;
    s.submitted = static_cast<int>(store_.size());
    for (std::size_t slot = stream_slots_; slot < store_.size(); slot++)
        if (!store_[slot].done())
            s.pending++;
    s.finished = finished_;
    s.canceled = canceled_;
    s.shards = 1;
    s.total_pool_pages = engine_.numPages();
    return s;
}

std::string
EngineClient::admissionError(const Request& r) const
{
    return admission(r).message;
}

Admission
EngineClient::admission(const Request& r) const
{
    if (index_.find(r.id) != index_.end())
        return {AdmissionCode::DuplicateId,
                detail::concat("duplicate request id ", r.id, " submitted")};
    return engine_.admission(sanitized(r));
}

void
EngineClient::streamBegin(TokenSink sink)
{
    engine_.streamBegin(std::move(sink));
}

int
EngineClient::streamSubmit(const Request& r)
{
    BITDEC_ASSERT(index_.find(r.id) == index_.end(),
                  "duplicate request id ", r.id, " submitted");
    store_.push_back(sanitized(r));
    index_[r.id] = store_.size() - 1;
    // A deque never relocates elements on push_back, so the engine can
    // hold this pointer for the life of the stream while poll() reads
    // the same object live.
    engine_.streamAdd(&store_.back());
    return r.id;
}

bool
EngineClient::streamCancel(int id)
{
    if (!engine_.streamCancel(id))
        return false;
    canceled_++;
    return true;
}

bool
EngineClient::streamTick()
{
    return engine_.streamTick();
}

bool
EngineClient::streamIdle() const
{
    return engine_.streamIdle();
}

double
EngineClient::streamClock() const
{
    return engine_.streamClock();
}

ServingMetrics
EngineClient::streamSnapshot() const
{
    return engine_.streamSnapshot();
}

ServingMetrics
EngineClient::streamEnd()
{
    const ServingMetrics m = engine_.streamEnd();
    for (std::size_t slot = stream_slots_; slot < store_.size(); slot++) {
        const Request& r = store_[slot];
        if (r.state == RequestState::Finished)
            finished_++;
        else if (r.state == RequestState::Canceled &&
                 r.cancel_cause != CancelCause::Client)
            canceled_++; // client cancels were counted by streamCancel
    }
    stream_slots_ = store_.size();
    return m;
}

} // namespace bitdec::serving
