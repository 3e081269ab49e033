/**
 * @file
 * Fixed-size thread pool for the artifact engine (and anything else
 * that wants coarse task parallelism).
 *
 * Deliberately simple — no work stealing, one shared FIFO queue — so
 * scheduling order is easy to reason about and the pool is safe to
 * use from tasks themselves (submit() only touches the queue lock).
 * Two invariants the engine relies on:
 *
 *  - submit() is safe from any thread, including worker threads
 *    (tasks may enqueue follow-up tasks);
 *  - destruction *drains* the queue: every task submitted before the
 *    destructor runs is executed, then workers join.
 *
 * Blocking on another task's future from inside a task can deadlock a
 * fixed pool and is not supported; structure work as phases instead
 * (the engine fans out independent tasks and joins from the caller).
 */

#ifndef TEPIC_SUPPORT_THREAD_POOL_HH
#define TEPIC_SUPPORT_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace tepic::support {

class ThreadPool
{
  public:
    /** Spawn @p threads workers; 0 means hardwareThreads(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Runs every already-submitted task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threadCount() const { return unsigned(workers_.size()); }

    /**
     * Enqueue @p fn; the future carries its result or exception.
     * Callable from worker threads.
     */
    template <typename F>
    auto
    submit(F fn) -> std::future<std::invoke_result_t<F &>>
    {
        using Result = std::invoke_result_t<F &>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::move(fn));
        std::future<Result> future = task->get_future();
        enqueue([task] { (*task)(); });
        return future;
    }

    /**
     * Run body(0) .. body(count-1) across the pool and wait for all
     * of them. Must be called from outside the pool (a worker calling
     * this could deadlock waiting for its own slot). If any iteration
     * throws, the first exception (by index) is rethrown after every
     * iteration has finished.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    /** std::thread::hardware_concurrency(), never zero. */
    static unsigned hardwareThreads();

  private:
    void enqueue(std::function<void()> job);
    void workerLoop(unsigned index);

    std::mutex mutex_;
    std::condition_variable available_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
};

} // namespace tepic::support

#endif // TEPIC_SUPPORT_THREAD_POOL_HH
