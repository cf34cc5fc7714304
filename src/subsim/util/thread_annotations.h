#ifndef SUBSIM_UTIL_THREAD_ANNOTATIONS_H_
#define SUBSIM_UTIL_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis annotations, compiled away everywhere else.
///
/// These macros attach compile-time locking contracts to classes, members,
/// and functions: which mutex guards which field, which capability a method
/// requires, and which calls acquire or release one. Under
/// `clang++ -Wthread-safety` (enabled by `-DSUBSIM_THREAD_SAFETY=ON`, see
/// the top-level CMakeLists) every violation — an unprotected read of a
/// `SUBSIM_GUARDED_BY` member, a `SUBSIM_REQUIRES` method called without
/// its lock, a double-acquire — is a hard compile error. Under GCC and
/// MSVC the macros expand to nothing, so the contracts cost nothing and
/// break nothing.
///
/// The std::mutex / std::shared_mutex in libstdc++ carry no capability
/// attributes, so the analysis cannot see through `std::lock_guard` on a
/// raw standard mutex. Lock state therefore flows through the annotated
/// wrappers in `subsim/util/mutex.h` (`Mutex`, `SharedMutex`, `MutexLock`,
/// ...), which every mutex-protected class in the library uses.
///
/// Naming follows the Clang documentation's modern capability vocabulary
/// (ACQUIRE/RELEASE rather than the legacy EXCLUSIVE_LOCK_FUNCTION forms).

#if defined(__clang__) && (!defined(SWIG))
#define SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

/// Declares that a type is a capability ("mutex", "shared_mutex", ...).
#define SUBSIM_CAPABILITY(x) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability.
#define SUBSIM_SCOPED_CAPABILITY \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Member is readable/writable only while holding `x`.
#define SUBSIM_GUARDED_BY(x) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define SUBSIM_PT_GUARDED_BY(x) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Caller must hold `...` exclusively for the duration of the call.
#define SUBSIM_REQUIRES(...) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// Caller must hold `...` at least shared.
#define SUBSIM_REQUIRES_SHARED(...) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// Function acquires `...` exclusively and does not release it.
#define SUBSIM_ACQUIRE(...) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// Function acquires `...` shared.
#define SUBSIM_ACQUIRE_SHARED(...) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

/// Function releases `...` (exclusive or shared).
#define SUBSIM_RELEASE(...) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// Function releases a shared hold of `...`.
#define SUBSIM_RELEASE_SHARED(...) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

/// Caller must NOT hold `...` (deadlock prevention for self-locking APIs).
#define SUBSIM_EXCLUDES(...) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Lock-ordering declarations, checked under -Wthread-safety-beta.
#define SUBSIM_ACQUIRED_BEFORE(...) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define SUBSIM_ACQUIRED_AFTER(...) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// Function returns a reference to the mutex guarding its result.
#define SUBSIM_RETURN_CAPABILITY(x) \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: the function's locking is deliberately invisible to the
/// analysis (e.g. guard handles whose acquisition site is another object's
/// constructor). Every use must carry a comment saying why.
#define SUBSIM_NO_THREAD_SAFETY_ANALYSIS \
  SUBSIM_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

#endif  // SUBSIM_UTIL_THREAD_ANNOTATIONS_H_
