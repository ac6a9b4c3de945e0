/**
 * @file
 * Annotated lock primitives: thin wrappers over std::mutex /
 * std::condition_variable that clang's thread-safety analysis can see
 * (common/thread_annotations.h). libstdc++ ships std::mutex without
 * capability attributes, so locking through it is invisible to the
 * analysis; these wrappers delegate 1:1 (same codegen after inlining)
 * while carrying the attributes that let `-Wthread-safety` prove each
 * SVARD_GUARDED_BY contract at compile time.
 *
 * Usage mirrors the std types:
 *
 *   Mutex mu_;
 *   int value_ SVARD_GUARDED_BY(mu_);
 *   { MutexLock lock(mu_); ++value_; }          // lock_guard
 *   { UniqueLock lock(mu_); cv_.wait(lock); }   // unique_lock + cv
 *
 * CondVar::wait unlocks and relocks internally; the analysis treats
 * the capability as held across the wait, which matches the caller's
 * entry/exit contract (guarded state must be re-checked after waking
 * regardless — use a `while (!pred) cv.wait(lock);` loop so the
 * predicate reads are visibly under the lock).
 */
#ifndef SVARD_COMMON_MUTEX_H
#define SVARD_COMMON_MUTEX_H

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace svard {

class CondVar;

/** Annotated std::mutex. */
class SVARD_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() SVARD_ACQUIRE() { mu_.lock(); }
    void unlock() SVARD_RELEASE() { mu_.unlock(); }
    bool try_lock() SVARD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  private:
    friend class UniqueLock;
    std::mutex mu_;
};

/** Annotated std::lock_guard: locks for the enclosing scope. */
class SVARD_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) SVARD_ACQUIRE(mu)
        : mu_(mu)
    {
        mu_.lock();
    }

    ~MutexLock() SVARD_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/**
 * Annotated std::unique_lock: scoped like MutexLock but relockable
 * (the analysis tracks the held/released state through the member
 * lock()/unlock() calls) and usable with CondVar::wait.
 */
class SVARD_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &mu) SVARD_ACQUIRE(mu)
        : lk_(mu.mu_)
    {
    }

    /** Unlocks if currently held (std::unique_lock semantics). */
    ~UniqueLock() SVARD_RELEASE() {}

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

    void lock() SVARD_ACQUIRE() { lk_.lock(); }
    void unlock() SVARD_RELEASE() { lk_.unlock(); }

  private:
    friend class CondVar;
    std::unique_lock<std::mutex> lk_;
};

/**
 * Condition variable over UniqueLock. Only the predicate-less wait is
 * offered: spelling the loop `while (!pred) cv.wait(lock);` keeps the
 * predicate's guarded reads inside the annotated caller, where the
 * analysis can check them (a wait(lock, pred) lambda would be analyzed
 * as a lockless function and defeat the point).
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release `lk`, sleep, and reacquire before return. */
    void wait(UniqueLock &lk) { cv_.wait(lk.lk_); }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace svard

#endif // SVARD_COMMON_MUTEX_H
