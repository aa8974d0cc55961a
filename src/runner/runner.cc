#include "runner/runner.h"

#include "util/sysinfo.h"

namespace dsmem::runner {

unsigned
RunnerOptions::resolvedJobs() const
{
    return jobs > 0 ? jobs : util::hostCores();
}

Runner::Runner(unsigned jobs)
{
    if (jobs == 0)
        jobs = 1;
    workers_.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Runner::~Runner()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
Runner::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(job));
        ++pending_;
    }
    work_cv_.notify_one();
}

void
Runner::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void
Runner::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        work_cv_.wait(lock,
                      [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stop_)
                return;
            continue;
        }
        std::function<void()> job = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        // A job that throws must not take the worker (and with it
        // every queued job plus the wait()er) down with it: capture,
        // report, and keep draining the graph.
        try {
            job();
        } catch (const std::exception &e) {
            uncaught_.fetch_add(1, std::memory_order_relaxed);
            if (on_uncaught_)
                on_uncaught_(e.what());
        } catch (...) {
            uncaught_.fetch_add(1, std::memory_order_relaxed);
            if (on_uncaught_)
                on_uncaught_("non-standard exception");
        }
        lock.lock();
        if (--pending_ == 0)
            idle_cv_.notify_all();
    }
}

} // namespace dsmem::runner
