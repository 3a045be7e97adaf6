// Annotated mutex wrappers: the capability types behind util/annotations.hpp.
//
// libstdc++ ships std::mutex without thread-safety attributes, so clang's
// analysis cannot track std::lock_guard<std::mutex> acquisitions.  Mutex and
// MutexLock are thin zero-overhead wrappers (everything inlines to the
// std::mutex calls) that carry the capability annotations, letting
// RMRN_GUARDED_BY members and RMRN_REQUIRES functions be checked at compile
// time.  All lock-protected state in the repo uses these instead of a bare
// std::mutex — see DESIGN.md §12 for the conventions.
//
// MutexLock is the scoped capability: it holds the mutex for its lifetime.
#pragma once

#include <mutex>

#include "util/annotations.hpp"

namespace rmrn::util {

class RMRN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RMRN_ACQUIRE() { m_.lock(); }
  void unlock() RMRN_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() RMRN_TRY_ACQUIRE(true) {
    return m_.try_lock();
  }

 private:
  std::mutex m_;
};

/// RAII lock over a Mutex: acquires on construction, releases on
/// destruction.
class RMRN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) RMRN_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() RMRN_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace rmrn::util
