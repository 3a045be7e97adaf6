#include "util/thread_pool.hpp"

#include <algorithm>

namespace rmrn::util {

unsigned resolveThreadCount(unsigned requested) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Clamp to the hardware: oversubscribing a box with fewer cores only adds
  // scheduling overhead (a 2-thread run measured 0.95x on a 1-core host).
  return requested == 0 ? hw : std::min(requested, hw);
}

ThreadPool::ThreadPool(unsigned num_threads)
    : num_workers_(resolveThreadCount(num_threads) - 1) {
  workers_.reserve(num_workers_);
  for (unsigned t = 0; t < num_workers_; ++t) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_relaxed);
  job_id_.fetch_add(1, std::memory_order_release);
  job_id_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t count = end - begin;
  if (num_workers_ == 0 || count == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  fn_ = &fn;
  end_ = end;
  // Chunks small enough to balance uneven iterations, large enough that the
  // claim counter stays cold.
  chunk_ = std::max<std::size_t>(
      1, count / (static_cast<std::size_t>(num_workers_ + 1) * 8));
  next_.store(begin, std::memory_order_relaxed);
  active_.store(num_workers_, std::memory_order_relaxed);
  // The release bump publishes the payload above to every worker.
  job_id_.fetch_add(1, std::memory_order_release);
  job_id_.notify_all();
  runChunks();  // the caller is a lane too

  for (unsigned active = active_.load(std::memory_order_acquire); active != 0;
       active = active_.load(std::memory_order_acquire)) {
    active_.wait(active, std::memory_order_acquire);
  }
  fn_ = nullptr;
  const MutexLock lock(&mutex_);
  if (error_) {
    const std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::workerLoop() {
  std::uint32_t seen = 0;
  for (;;) {
    job_id_.wait(seen, std::memory_order_acquire);
    seen = job_id_.load(std::memory_order_acquire);
    if (stopping_.load(std::memory_order_relaxed)) return;
    runChunks();
    if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      active_.notify_one();
    }
  }
}

void ThreadPool::runChunks() {
  for (;;) {
    const std::size_t start = next_.fetch_add(chunk_, std::memory_order_relaxed);
    if (start >= end_) return;
    const std::size_t stop = std::min(end_, start + chunk_);
    try {
      for (std::size_t i = start; i < stop; ++i) (*fn_)(i);
    } catch (...) {
      const MutexLock lock(&mutex_);
      if (!error_) error_ = std::current_exception();
      next_.store(end_, std::memory_order_relaxed);  // abandon the rest
      return;
    }
  }
}

}  // namespace rmrn::util
