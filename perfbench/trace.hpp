// In-memory span recorder for the benchmark's traced rounds.
//
// A span is one call into a layer's public function, recorded from the
// benchmark side of the boundary: name, start, end, the enclosing span and
// the workload it ran under.  Spans nest strictly (the traced rounds are
// single-threaded on the caller side), so a span's self time is its
// duration minus the durations of its direct children.  Spans stay in
// memory while the benchmark runs and are written out once at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    std::uint32_t name = 0;  // index into names()
    std::uint32_t parent = kNoParent;
    Clock::time_point start;
    Clock::time_point end;
    /// Optional per-span count, e.g. shards touched by a churn op.
    double attr = 0.0;
  };

  explicit Tracer(std::string workload);

  /// Opens a span as a child of the innermost open span.
  std::uint32_t begin(std::string_view name);
  /// Closes the innermost open span, which must be `id`.
  void end(std::uint32_t id, double attr = 0.0);
  /// Records a closed span with explicit times under the innermost open
  /// span (for phase splits a callee measured with its own clock).
  void add(std::string_view name, Clock::time_point start,
           Clock::time_point end);

  /// Sum over spans called `name` of their self time, in seconds.
  [[nodiscard]] double selfSeconds(std::string_view name) const;
  /// Durations in seconds of the spans called `name`, with their attrs.
  [[nodiscard]] std::vector<std::pair<double, double>> durations(
      std::string_view name) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes every span as JSON (times in microseconds since the first span).
  void writeJson(const std::string& path, std::uint64_t seed) const;

 private:
  std::uint32_t intern(std::string_view name);
  [[nodiscard]] std::vector<double> childSeconds() const;

  std::string workload_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(id_, attr_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void setAttr(double attr) { attr_ = attr; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
  double attr_ = 0.0;
};

}  // namespace perfbench
