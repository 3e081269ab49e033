#include "support/thread_pool.hh"

#include <exception>

#include "support/logging.hh"
#include "support/sched.hh"
#include "support/scope.hh"

namespace tepic::support {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = hardwareThreads();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    available_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        TEPIC_ASSERT(!stopping_,
                     "submit() on a ThreadPool being destroyed");
        queue_.push_back(std::move(job));
    }
    available_.notify_one();
}

namespace {

/** Tags the worker thread for the sched recorder, detaching on exit. */
struct SchedWorkerTag
{
    explicit SchedWorkerTag(unsigned index)
    {
        sched::workerAttach(index);
    }
    ~SchedWorkerTag() { sched::workerDetach(); }
};

} // namespace

void
ThreadPool::workerLoop(unsigned index)
{
    const SchedWorkerTag sched_tag(index);
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            available_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            // Drain-on-shutdown: queued work still runs after the
            // stop flag is raised; workers only exit on empty.
            if (queue_.empty())
                return;
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        // Jobs re-scope themselves (e.g. the engine's kBuild* layers),
        // so only the residue between pickup and the job's own scopes
        // lands in kPoolTask's phase.
        const Scope scope(Layer::kPoolTask);
        job();  // packaged_task captures any exception
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    if (count == 1 || threadCount() <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    std::vector<std::future<void>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        futures.push_back(submit([&body, i] { body(i); }));
    std::exception_ptr first_error;
    for (auto &future : futures) {
        try {
            future.get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace tepic::support
