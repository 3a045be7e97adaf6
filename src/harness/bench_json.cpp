#include "harness/bench_json.hpp"

#include <thread>

namespace rmrn::harness {

std::string jsonRows(const std::vector<JsonObject>& rows) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += "    " + rows[i].line() + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  return out + "  ]";
}

std::string JsonObject::line() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += (i > 0 ? ", " : "") + fields_[i].first + ": " + fields_[i].second;
  }
  return out + "}";
}

BenchReport::BenchReport(std::string_view name_key, std::string_view name) {
  add(name_key, name);
  add("schema_version", kBenchSchemaVersion);
  add("hardware_concurrency", std::thread::hardware_concurrency());
}

std::string BenchReport::str() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += "  " + fields_[i].first + ": " + fields_[i].second +
           (i + 1 < fields_.size() ? ",\n" : "\n");
  }
  return out + "}\n";
}

}  // namespace rmrn::harness
