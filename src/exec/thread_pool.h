/**
 * @file
 * Small work-stealing thread pool for the CPU execution backend.
 *
 * The pool parallelizes the functional hot paths — (sequence, head) fan-out
 * in batched decode and the serving engine, KV-chunk fan-out inside the
 * fused attention kernels, and block fan-out in the packed cache's
 * prefill (each whole Nr-token block quantize-packed into its own slot) —
 * while keeping results bitwise independent of the thread count: tasks
 * write to disjoint, index-addressed slots and the caller performs every
 * reduction sequentially in index order.
 *
 * Each worker owns a deque; submissions are distributed round-robin, a
 * worker pops from the front of its own deque and steals from the back of
 * a sibling's when it runs dry. The thread calling parallelFor() joins the
 * workers for the duration of the call, so a pool of size 1 executes
 * entirely inline on the caller.
 *
 * Nesting: the member parallelFor() asserts when the calling thread is
 * already running a task of the same pool (waiting there would deadlock).
 * The free parallelFor() instead runs such a call inline on the calling
 * thread, so a kernel that defaults to the global pool (prefill) stays
 * safe to call from inside a global-pool task.
 *
 * The global pool's size comes from the BITDEC_THREADS environment
 * variable, falling back to std::thread::hardware_concurrency().
 */
#ifndef BITDEC_EXEC_THREAD_POOL_H
#define BITDEC_EXEC_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bitdec::exec {

/** Work-stealing pool; see file comment for the determinism contract. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count including the calling thread during
     *                parallelFor; 0 resolves BITDEC_THREADS / hardware
     *                concurrency. A pool of 1 spawns no threads.
     */
    explicit ThreadPool(int threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Worker count (including the caller during parallelFor). */
    int numThreads() const { return num_threads_; }

    /**
     * Runs fn(i) for every i in [0, n), distributed over the pool; returns
     * once all calls completed. fn must write only to slots owned by its
     * index — the caller merges afterwards, in index order, so output is
     * identical for any pool size.
     */
    void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

    /**
     * Process-wide pool, sized once from BITDEC_THREADS (or the hardware).
     */
    static ThreadPool& global();

    /** Thread count the global pool resolves to (for reporting). */
    static int globalThreadCount();

  private:
    struct Queue
    {
        std::deque<std::function<void()>> tasks;
        std::mutex mutex;
    };

    void workerLoop(std::size_t self);
    bool runOneTask(std::size_t self);

    int num_threads_;
    std::vector<std::unique_ptr<Queue>> queues_;
    std::vector<std::thread> workers_;
    std::atomic<std::size_t> next_queue_{0};
    std::atomic<long> queued_{0};  //!< tasks sitting in queues (wake signal)
    std::atomic<long> pending_{0}; //!< tasks queued or executing (completion)
    std::mutex wake_mutex_;
    std::condition_variable wake_cv_;
    std::mutex done_mutex_;
    std::condition_variable done_cv_;
    std::atomic<bool> stop_{false};
};

/**
 * Convenience: parallelFor on @p pool when given, inline on the calling
 * thread when @p pool is null or when this thread is already running a
 * task of @p pool. Kernels take an optional pool so callers that already
 * fan out at a coarser level (per sequence, per head) run each kernel
 * serially and nested parallelism never arises.
 */
void parallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

} // namespace bitdec::exec

#endif // BITDEC_EXEC_THREAD_POOL_H
