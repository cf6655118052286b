#include "exec/thread_pool.h"

#include <cstdlib>

#include "common/logging.h"

namespace bitdec::exec {

namespace {

int
resolveThreadCount(int requested)
{
    if (requested > 0)
        return requested;
    if (const char* env = std::getenv("BITDEC_THREADS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

/** Pool whose task the current thread is executing (deadlock guard). */
thread_local const ThreadPool* t_current_pool = nullptr;

} // namespace

ThreadPool::ThreadPool(int threads) : num_threads_(resolveThreadCount(threads))
{
    queues_.reserve(static_cast<std::size_t>(num_threads_));
    for (int i = 0; i < num_threads_; i++)
        queues_.push_back(std::make_unique<Queue>());
    // Thread 0 is the caller's slot; spawn only the remaining workers.
    for (int i = 1; i < num_threads_; i++)
        workers_.emplace_back([this, i] {
            workerLoop(static_cast<std::size_t>(i));
        });
}

ThreadPool::~ThreadPool()
{
    stop_.store(true);
    {
        std::lock_guard<std::mutex> lk(wake_mutex_);
    }
    wake_cv_.notify_all();
    for (auto& w : workers_)
        w.join();
}

bool
ThreadPool::runOneTask(std::size_t self)
{
    const std::size_t n = queues_.size();
    for (std::size_t probe = 0; probe < n; probe++) {
        // Own queue first (front), then steal from siblings (back).
        const std::size_t qi = (self + probe) % n;
        Queue& q = *queues_[qi];
        std::function<void()> task;
        {
            std::lock_guard<std::mutex> lk(q.mutex);
            if (q.tasks.empty())
                continue;
            if (probe == 0) {
                task = std::move(q.tasks.front());
                q.tasks.pop_front();
            } else {
                task = std::move(q.tasks.back());
                q.tasks.pop_back();
            }
        }
        queued_.fetch_sub(1);
        const ThreadPool* prev = t_current_pool;
        t_current_pool = this;
        task();
        t_current_pool = prev;
        if (pending_.fetch_sub(1) == 1) {
            std::lock_guard<std::mutex> lk(done_mutex_);
            done_cv_.notify_all();
        }
        return true;
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    while (!stop_.load()) {
        if (runOneTask(self))
            continue;
        // Sleep until work is *queued* (not merely in flight): waking on
        // in-flight tasks would busy-spin idle workers for the duration of
        // the longest-running task.
        std::unique_lock<std::mutex> lk(wake_mutex_);
        wake_cv_.wait(lk, [this] {
            return stop_.load() || queued_.load() > 0;
        });
    }
}

void
ThreadPool::parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn)
{
    if (n == 0)
        return;
    // Nested parallelFor on the same pool would wait on a pending count
    // that includes the caller's own enclosing task — a silent deadlock.
    // Fail loudly instead; callers fan out at one level and pass null
    // pools to inner kernels (or use the free parallelFor, which runs
    // such a call inline).
    BITDEC_ASSERT(t_current_pool != this,
                  "nested parallelFor on the same ThreadPool");
    if (num_threads_ <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; i++)
            fn(i);
        return;
    }

    pending_.fetch_add(static_cast<long>(n));
    queued_.fetch_add(static_cast<long>(n));
    for (std::size_t i = 0; i < n; i++) {
        const std::size_t qi =
            next_queue_.fetch_add(1) % queues_.size();
        Queue& q = *queues_[qi];
        std::lock_guard<std::mutex> lk(q.mutex);
        q.tasks.push_back([&fn, i] { fn(i); });
    }
    {
        std::lock_guard<std::mutex> lk(wake_mutex_);
    }
    wake_cv_.notify_all();

    // The caller works too (slot 0), then waits for stragglers.
    while (runOneTask(0)) {
    }
    std::unique_lock<std::mutex> lk(done_mutex_);
    done_cv_.wait(lk, [this] { return pending_.load() == 0; });
}

ThreadPool&
ThreadPool::global()
{
    static ThreadPool pool(0);
    return pool;
}

int
ThreadPool::globalThreadCount()
{
    return global().numThreads();
}

void
parallelFor(ThreadPool* pool, std::size_t n,
            const std::function<void(std::size_t)>& fn)
{
    if (pool == nullptr || pool == t_current_pool) {
        for (std::size_t i = 0; i < n; i++)
            fn(i);
        return;
    }
    pool->parallelFor(n, fn);
}

} // namespace bitdec::exec
