/**
 * @file
 * Clang thread-safety annotations and the annotated lock primitives
 * the concurrency-bearing layers (common::ThreadPool, the obs sinks,
 * analysis::Auditor) build on.
 *
 * The macros expand to clang's `-Wthread-safety` attributes when the
 * compiler supports them and to nothing everywhere else, so the
 * annotations are free documentation under gcc and a compile-time
 * lock-discipline proof under clang (the `tidy`/`tsan` presets turn
 * the warning on; CI enforces `-Werror=thread-safety`).
 *
 * libstdc++'s std::mutex carries no capability attribute, so the
 * analysis cannot see through it. satori::common::Mutex wraps it with
 * the capability annotations, MutexLock is the annotated scoped
 * guard (with explicit unlock()/lock() for drop-the-lock-around-work
 * patterns), and CondVar pairs with MutexLock for condition waits.
 * The wrappers add no state beyond the wrapped primitive and compile
 * to identical code.
 *
 * Policy (GUIDE.md §13): every member std::mutex in the library must
 * be a common::Mutex, and at least the fields it protects must carry
 * SATORI_GUARDED_BY(mutex_). The analyzer's `conc-unannotated-mutex`
 * rule enforces the latter mechanically.
 */

#ifndef SATORI_COMMON_THREAD_ANNOTATIONS_HPP
#define SATORI_COMMON_THREAD_ANNOTATIONS_HPP

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SATORI_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SATORI_THREAD_ANNOTATION
#define SATORI_THREAD_ANNOTATION(x)
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define SATORI_CAPABILITY(x) SATORI_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires on construction, releases on exit. */
#define SATORI_SCOPED_CAPABILITY SATORI_THREAD_ANNOTATION(scoped_lockable)

/** Field access requires holding the named capability. */
#define SATORI_GUARDED_BY(x) SATORI_THREAD_ANNOTATION(guarded_by(x))

/** Pointee access requires holding the named capability. */
#define SATORI_PT_GUARDED_BY(x) SATORI_THREAD_ANNOTATION(pt_guarded_by(x))

/** Caller must hold the named capabilities to call this function. */
#define SATORI_REQUIRES(...) \
    SATORI_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Caller must NOT hold the named capabilities (deadlock guard). */
#define SATORI_EXCLUDES(...) \
    SATORI_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function acquires the named capabilities (its own when empty). */
#define SATORI_ACQUIRE(...) \
    SATORI_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the named capabilities (its own when empty). */
#define SATORI_RELEASE(...) \
    SATORI_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the capability when returning the given value. */
#define SATORI_TRY_ACQUIRE(...) \
    SATORI_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Escape hatch for code the analysis cannot model; justify in a comment. */
#define SATORI_NO_THREAD_SAFETY_ANALYSIS \
    SATORI_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace satori {
namespace common {

class CondVar;

/**
 * std::mutex with clang capability annotations. Same size, same
 * semantics; exists only because libstdc++'s mutex is opaque to the
 * thread-safety analysis.
 */
class SATORI_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() SATORI_ACQUIRE() { mutex_.lock(); }
    void unlock() SATORI_RELEASE() { mutex_.unlock(); }
    [[nodiscard]] bool try_lock() SATORI_TRY_ACQUIRE(true)
    {
        return mutex_.try_lock();
    }

  private:
    friend class CondVar;
    std::mutex mutex_;
};

/**
 * Annotated scoped guard over Mutex: acquires on construction,
 * releases on destruction. unlock()/lock() support the
 * drop-the-lock-around-work pattern (ThreadPool::workerLoop) without
 * losing the analysis.
 */
class SATORI_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex& mutex) SATORI_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
    }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

    ~MutexLock() SATORI_RELEASE()
    {
        if (held_)
            mutex_.unlock();
    }

    /** Temporarily drop the lock; the destructor tolerates ending in
     *  either state. */
    void unlock() SATORI_RELEASE()
    {
        held_ = false;
        mutex_.unlock();
    }

    /** Re-acquire after unlock(). */
    void lock() SATORI_ACQUIRE()
    {
        mutex_.lock();
        held_ = true;
    }

  private:
    friend class CondVar;
    Mutex& mutex_;
    bool held_ = true;
};

/**
 * Condition variable paired with MutexLock. wait() releases and
 * re-acquires the lock's mutex; from the analysis' point of view the
 * capability set is unchanged across the call, which is exactly the
 * caller-visible contract. Spell predicates as explicit while-loops
 * around wait() so guarded reads stay inside the annotated caller
 * (lambda predicates are opaque to the analysis).
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    /** Block until notified; @p lock must hold its mutex on entry. */
    void wait(MutexLock& lock)
    {
        std::unique_lock<std::mutex> native(lock.mutex_.mutex_,
                                            std::adopt_lock);
        cv_.wait(native);
        // The mutex is re-acquired; hand ownership back to the guard.
        native.release();
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace common
} // namespace satori

#endif // SATORI_COMMON_THREAD_ANNOTATIONS_HPP
