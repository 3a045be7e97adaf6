// Fixed-size worker pool with a blocking parallelFor primitive.
//
// The control plane's heavy loops (per-source Dijkstra in net::Routing,
// per-client planning in core::RpPlanner) are embarrassingly parallel: every
// iteration writes a disjoint, pre-sized slot.  parallelFor partitions the
// index range into chunks claimed off an atomic counter, so callers get
// bit-identical results regardless of the thread count as long as the body
// only writes its own slot.  std::thread only — no external dependencies.
//
// Job hand-off is lock-free: the caller publishes a job by bumping the atomic
// job_id_ and waits for the atomic active_ count to reach zero, both through
// C++20 std::atomic wait/notify, so a job costs no mutex or condition
// variable round trip.  The job-payload members (fn_, end_, chunk_, next_)
// are written by the caller before its release bump of job_id_ and read by
// workers after their acquire load of it; workers' acq_rel decrements of
// active_ order their writes before the caller's return — the dynamic TSan
// job verifies both edges.  mutex_ is an annotated util::Mutex that guards
// only error_ (RMRN_GUARDED_BY, compiler-checked under clang
// -Werror=thread-safety).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace rmrn::util {

/// Resolves a user-facing thread-count setting: 0 means "use the hardware",
/// i.e. std::thread::hardware_concurrency() (at least 1).  Non-zero requests
/// are clamped to the hardware concurrency — extra lanes beyond the core
/// count cannot help the pool's compute-bound parallelFor loops and
/// measurably regress single-core hosts.
[[nodiscard]] unsigned resolveThreadCount(unsigned requested);

class ThreadPool {
 public:
  /// Spawns `resolveThreadCount(num_threads) - 1` workers; the caller's
  /// thread participates in every parallelFor, so `size()` execution lanes
  /// are available in total.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread).
  [[nodiscard]] unsigned size() const { return num_workers_ + 1; }

  /// Runs fn(i) for every i in [begin, end) across all lanes and blocks
  /// until done.  fn must be safe to call concurrently for distinct i; the
  /// assignment of indices to threads is unspecified.  The first exception
  /// thrown by fn is rethrown here (remaining chunks are abandoned).
  /// Not reentrant: fn must not call parallelFor on the same pool.
  void parallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn)
      RMRN_EXCLUDES(mutex_);

 private:
  void workerLoop() RMRN_EXCLUDES(mutex_);
  void runChunks() RMRN_EXCLUDES(mutex_);

  unsigned num_workers_ = 0;

  // Hand-off state.  job_id_ is 32 bits, the width a futex waits on; only
  // its changes matter, so wrap-around is harmless.
  std::atomic<std::uint32_t> job_id_{0};
  // Workers still inside the current job.
  std::atomic<unsigned> active_{0};
  std::atomic<bool> stopping_{false};

  Mutex mutex_;
  std::exception_ptr error_ RMRN_GUARDED_BY(mutex_);

  // Current job; written before job_id_ is bumped, read-only until the
  // caller observes active_ == 0.  See the header comment.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t end_ = 0;
  std::size_t chunk_ = 1;
  std::atomic<std::size_t> next_{0};

  // Declared after every member the workers touch.
  std::vector<std::thread> workers_;
};

}  // namespace rmrn::util
