#include "reference.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <new>
#include <numeric>

namespace perfbench {
namespace {

// Sizes: of the variants tried (tables of 64 KiB to 16 MiB, with and without
// extra arithmetic per op), a 1 MiB table slowed most nearly in step with
// the simulation workloads when the host slowed; larger tables slowed much
// more than they did, smaller ones tracked them less closely.
constexpr std::size_t kHeapEntries = std::size_t{1} << 16;  // 512 KiB
constexpr std::size_t kTableEntries = std::size_t{1} << 18;  // 1 MiB
constexpr std::uint32_t kOps = 900000;  // about kNominalSeconds

[[nodiscard]] std::uint64_t step(std::uint64_t x) {
  return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

/// Anonymous memory mapped for one kernel run and unmapped after it, so the
/// kernel leaves neither the allocator's state nor the resident set changed
/// for the workload's own measurements.
class Mapping {
 public:
  explicit Mapping(std::size_t bytes) : bytes_(bytes) {
    data_ = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (data_ == MAP_FAILED) throw std::bad_alloc();
    std::memset(data_, 0, bytes_);  // fault every page in before timing
  }
  ~Mapping() { munmap(data_, bytes_); }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  template <typename T>
  [[nodiscard]] T* as() const {
    return static_cast<T*>(data_);
  }

 private:
  std::size_t bytes_;
  void* data_;
};

/// One run of the kernel: returns its time and a checksum of its result.
std::pair<double, std::uint64_t> runKernel() {
  const Mapping heap_memory(kHeapEntries * sizeof(std::uint64_t));
  const Mapping table_memory(kTableEntries * sizeof(std::uint32_t));
  std::uint64_t* heap = heap_memory.as<std::uint64_t>();
  std::uint32_t* table = table_memory.as<std::uint32_t>();
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = 0; i < kHeapEntries; ++i) {
    x = step(x);
    heap[i] = x >> 24;
  }
  std::uint64_t* const end = heap + kHeapEntries;
  std::make_heap(heap, end, std::greater<>());

  const Clock::time_point t0 = Clock::now();
  for (std::uint32_t i = 0; i < kOps; ++i) {
    std::pop_heap(heap, end, std::greater<>());
    std::uint64_t& top = *(end - 1);
    x = step(x);
    table[(x >> 32) & (kTableEntries - 1)] += static_cast<std::uint32_t>(top);
    top += (x >> 48) & 1023;
    std::push_heap(heap, end, std::greater<>());
  }
  const Clock::time_point t1 = Clock::now();
  return {secondsBetween(t0, t1), heap[0] ^ table[x & (kTableEntries - 1)]};
}

}  // namespace

void ReferenceKernel::beginRound() { round_.clear(); }

void ReferenceKernel::sample() {
  if (!round_.empty() &&
      secondsBetween(last_end_, Clock::now()) < kSampleEvery) {
    return;
  }
  const auto [seconds, checksum] = runKernel();
  if (!all_.empty() && checksum != checksum_) consistent_ = false;
  checksum_ = checksum;
  round_.push_back(seconds);
  all_.push_back(seconds);
  last_end_ = Clock::now();
}

double ReferenceKernel::adjustment() const {
  if (round_.empty()) return 1.0;
  const double mean = std::accumulate(round_.begin(), round_.end(), 0.0) /
                      static_cast<double>(round_.size());
  return std::sqrt(kNominalSeconds / mean);
}

}  // namespace perfbench
