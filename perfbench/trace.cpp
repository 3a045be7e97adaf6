#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(std::string workload) : workload_(std::move(workload)) {}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(std::string_view name) {
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? kNoParent : open_.back();
  const auto id = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(id);
  span.start = Clock::now();
  spans_.push_back(span);
  return id;
}

void Tracer::end(std::uint32_t id, double attr) {
  const Clock::time_point now = Clock::now();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: spans must close innermost first");
  }
  open_.pop_back();
  spans_[id].end = now;
  spans_[id].attr = attr;
}

void Tracer::add(std::string_view name, Clock::time_point start,
                 Clock::time_point end) {
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.start = start;
  span.end = end;
  spans_.push_back(span);
}

std::vector<double> Tracer::childSeconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child[span.parent] += secondsBetween(span.start, span.end);
    }
  }
  return child;
}

double Tracer::selfSeconds(std::string_view name) const {
  const std::vector<double> child = childSeconds();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (names_[spans_[i].name] != name) continue;
    total += secondsBetween(spans_[i].start, spans_[i].end) - child[i];
  }
  return total;
}

std::vector<std::pair<double, double>> Tracer::durations(
    std::string_view name) const {
  std::vector<std::pair<double, double>> out;
  for (const Span& span : spans_) {
    if (names_[span.name] == name) {
      out.emplace_back(secondsBetween(span.start, span.end), span.attr);
    }
  }
  return out;
}

void Tracer::writeJson(const std::string& path, std::uint64_t seed) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const Clock::time_point epoch =
      spans_.empty() ? Clock::now() : spans_.front().start;
  const auto us = [epoch](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  out << "{\"workload\": \"" << workload_ << "\", \"seed\": " << seed
      << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"name\": \""
        << names_[span.name] << "\", \"parent\": ";
    if (span.parent == kNoParent) {
      out << "null";
    } else {
      out << span.parent;
    }
    out << ", \"start_us\": " << us(span.start)
        << ", \"end_us\": " << us(span.end) << ", \"workload\": \""
        << workload_ << "\", \"attr\": " << span.attr << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
