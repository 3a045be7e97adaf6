// The one serializer behind every BENCH_*.json file.  A report is an ordered
// list of top-level fields written one per line: scalars, number or string
// lists, one-line objects, and arrays of one-line row objects (one row per
// line).  Every report opens with its name key and the uniform envelope: a
// schema version (bumped whenever any report's layout changes shape) and the
// emitting host's core count, so recorded throughput and speedup numbers can
// never be read without knowing the hardware they came from.
#pragma once

#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace rmrn::harness {

/// BENCH_*.json envelope version.  1 was the pre-versioned layout (no
/// schema_version field, hardware_concurrency only in some emitters); 2 adds
/// both fields to every emitter.
inline constexpr int kBenchSchemaVersion = 2;

class JsonObject;
[[nodiscard]] std::string jsonRows(const std::vector<JsonObject>& rows);

/// JSON text of one value: numbers as an ostream prints them at precision
/// 10 (integers exactly), bools as true/false, strings quoted, vectors as
/// one-line lists, except that a vector of objects is a row array (one row
/// per line, indented for a top-level report field).
template <typename T>
[[nodiscard]] std::string jsonValue(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_arithmetic_v<T>) {
    std::ostringstream out;
    out.precision(10);
    out << value;
    return out.str();
  } else if constexpr (std::is_same_v<T, JsonObject>) {
    return value.line();
  } else if constexpr (std::is_same_v<T, std::vector<JsonObject>>) {
    return jsonRows(value);
  } else if constexpr (requires { value.begin(); } &&
                       !std::is_convertible_v<T, std::string_view>) {
    std::string out = "[";
    std::string_view separator;
    for (const auto& item : value) {
      out += std::string(separator) + jsonValue(item);
      separator = ", ";
    }
    return out + "]";
  } else {
    std::string out = "\"";
    for (const char c : std::string_view(value)) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }
}

/// Fields in insertion order, each value rendered when added.
class JsonObject {
 public:
  template <typename T>
  JsonObject& add(std::string_view key, const T& value) {
    fields_.emplace_back(jsonValue(key), jsonValue(value));
    return *this;
  }

  /// {"key": value, ...} on one line.
  [[nodiscard]] std::string line() const;

 protected:
  std::vector<std::pair<std::string, std::string>> fields_;  // quoted key
};

/// A BENCH_*.json document: the name key ("bench" for the rmrn_cli sweeps,
/// "benchmark" for the bench/ drivers), the envelope, then the added fields
/// one per line.
class BenchReport : public JsonObject {
 public:
  BenchReport(std::string_view name_key, std::string_view name);

  [[nodiscard]] std::string str() const;
};

inline std::ostream& operator<<(std::ostream& out, const BenchReport& report) {
  return out << report.str();
}

}  // namespace rmrn::harness
