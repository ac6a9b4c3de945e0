/**
 * @file
 * Minimal deterministic work-sharing: run an index-addressed job list
 * across a persistent pool of std::threads. Work items must be
 * independent and write only to their own result slots; the helper
 * guarantees every index runs exactly once, so a run's outputs are
 * identical for any thread count (the properties the experiment
 * engine's sharded sweeps rely on).
 *
 * The pool is created on first use and its threads persist across
 * parallelFor calls (the engine issues one batch per baseline phase
 * plus one per grid). Fresh threads per call, chunked the same way,
 * give the same outputs and throughput within noise but cost memory:
 * in three alternating 30 s svard_bench pairs on a 4-vCPU host,
 * median peak RSS read 30.6 MB pooled vs 38.6 MB per-call on
 * fig12-grid and 26.1 vs 37.3 MB on fig13-adversarial, past both
 * workloads' 20% bound. The growth is glibc malloc arenas under
 * thread churn: with MALLOC_ARENA_MAX=1, fig13 read 23.1 vs 24.7 MB.
 *
 * Workers claim contiguous index chunks from a shared atomic cursor;
 * chunking only changes which worker runs an index, never whether it
 * runs, so the exactly-once contract is preserved.
 */
#ifndef SVARD_COMMON_PARALLEL_H
#define SVARD_COMMON_PARALLEL_H

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace svard {

/** Threads to use for `0 = auto` requests. */
inline unsigned
resolveThreadCount(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

namespace detail {

/** True on threads owned by the pool (nested parallelFor calls run
 *  inline rather than deadlocking on the pool's own workers). */
inline bool &
inPoolWorker()
{
    thread_local bool flag = false;
    return flag;
}

/**
 * Persistent chunk-claiming worker pool behind parallelFor. One job
 * runs at a time (parallelFor is a blocking call); the calling thread
 * participates, so a pool of N threads serves jobs asking for up to
 * N+1 workers. The pool grows on demand when a caller requests more
 * workers than have ever been needed before.
 */
class ParallelPool
{
  public:
    static ParallelPool &
    instance()
    {
        static ParallelPool pool;
        return pool;
    }

    ParallelPool(const ParallelPool &) = delete;
    ParallelPool &operator=(const ParallelPool &) = delete;

    void
    run(size_t n, unsigned workers,
        const std::function<void(size_t)> &fn)
    {
        // One job at a time: concurrent parallelFor calls from
        // different caller threads serialize instead of racing on
        // the shared job slot.
        MutexLock run_lock(runMu_);
        size_t chunk = n / (static_cast<size_t>(workers) * 4);
        if (chunk == 0)
            chunk = 1;
        UniqueLock lock(mu_);
        // Grow to the requested width (caller participates too).
        while (threads_.size() + 1 < workers)
            spawnLocked();
        fn_ = &fn;
        n_ = n;
        chunk_ = chunk;
        next_.store(0, std::memory_order_relaxed);
        error_ = nullptr;
        const unsigned participants = static_cast<unsigned>(
            std::min<size_t>(workers - 1, threads_.size()));
        tickets_ = participants;
        active_ = participants;
        ++jobId_;
        lock.unlock();
        cv_.notify_all();

        // The caller is a worker too; flag it so a nested parallelFor
        // from inside fn runs inline instead of re-entering run() and
        // self-deadlocking on runMu_.
        const bool was_worker = inPoolWorker();
        inPoolWorker() = true;
        workLoop();
        inPoolWorker() = was_worker;

        lock.lock();
        while (active_ != 0)
            doneCv_.wait(lock);
        fn_ = nullptr;
        if (error_) {
            std::exception_ptr e = error_;
            error_ = nullptr;
            lock.unlock();
            std::rethrow_exception(e);
        }
    }

  private:
    ParallelPool() = default;

    ~ParallelPool()
    {
        {
            MutexLock lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    void
    spawnLocked() SVARD_REQUIRES(mu_)
    {
        const uint64_t seen = jobId_;
        threads_.emplace_back([this, seen] { threadMain(seen); });
    }

    void
    threadMain(uint64_t seen)
    {
        inPoolWorker() = true;
        UniqueLock lock(mu_);
        for (;;) {
            while (!stop_ && jobId_ == seen)
                cv_.wait(lock);
            if (stop_)
                return;
            seen = jobId_;
            if (tickets_ == 0)
                continue; // job fully staffed; wait for the next
            --tickets_;
            lock.unlock();
            workLoop();
            lock.lock();
            if (--active_ == 0)
                doneCv_.notify_one();
        }
    }

    void
    workLoop()
    {
        const size_t n = n_;
        const size_t chunk = chunk_;
        for (size_t start =
                 next_.fetch_add(chunk, std::memory_order_relaxed);
             start < n;
             start = next_.fetch_add(chunk,
                                     std::memory_order_relaxed)) {
            const size_t end = std::min(n, start + chunk);
            for (size_t i = start; i < end; ++i) {
                try {
                    (*fn_)(i);
                } catch (...) {
                    MutexLock lock(mu_);
                    if (!error_)
                        error_ = std::current_exception();
                }
            }
        }
    }

    Mutex runMu_; ///< serializes whole jobs
    Mutex mu_;
    CondVar cv_;     ///< job-start signal
    CondVar doneCv_; ///< participants-finished signal
    /** Grown under mu_ (spawnLocked); the destructor's join loop runs
     *  un-locked, which is safe because no other thread can still be
     *  running (ctors/dtors are exempt from the analysis). */
    std::vector<std::thread> threads_ SVARD_GUARDED_BY(mu_);
    bool stop_ SVARD_GUARDED_BY(mu_) = false;
    uint64_t jobId_ SVARD_GUARDED_BY(mu_) = 0;
    /** Pool participants still to claim the job. */
    unsigned tickets_ SVARD_GUARDED_BY(mu_) = 0;
    /** Pool participants inside the job. */
    unsigned active_ SVARD_GUARDED_BY(mu_) = 0;

    // Current job. Written under mu_ before the cv_ handshake and
    // read lock-free by workers afterwards: the waking worker's mu_
    // acquisition inside cv_.wait orders those writes before its
    // reads, and run() only rewrites the slots after doneCv_ reports
    // every reader finished — so the fields stay un-annotated.
    const std::function<void(size_t)> *fn_ = nullptr;
    size_t n_ = 0;
    size_t chunk_ = 1;
    std::atomic<size_t> next_{0};
    std::exception_ptr error_ SVARD_GUARDED_BY(mu_);
};

} // namespace detail

/**
 * Invoke `fn(i)` once for every i in [0, n), sharded over `threads`
 * workers (0 = hardware concurrency) from the persistent pool. With
 * threads == 1 the calls run inline in index order — handy for
 * debugging and for determinism comparisons against sharded runs.
 * Inline or pooled, an exception does not stop the job: every other
 * index still runs exactly once, and the first exception is then
 * rethrown on the calling thread. `n` may be 0 (a resume with every
 * cell cached): `workers` is then 0 too, so the inline branch must
 * come before anything that divides by it.
 */
inline void
parallelFor(size_t n, unsigned threads,
            const std::function<void(size_t)> &fn)
{
    const unsigned workers = static_cast<unsigned>(
        std::min<size_t>(resolveThreadCount(threads), n));
    if (workers <= 1 || detail::inPoolWorker()) {
        std::exception_ptr first;
        for (size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!first)
                    first = std::current_exception();
            }
        }
        if (first)
            std::rethrow_exception(first);
        return;
    }
    detail::ParallelPool::instance().run(n, workers, fn);
}

} // namespace svard

#endif // SVARD_COMMON_PARALLEL_H
