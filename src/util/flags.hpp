// Minimal command-line flag parser for the examples and the rmrn CLI.
//
// Accepts "--key=value", "--key value", bare "--switch" (value "true") and
// positional arguments.  Typed getters validate and report errors with the
// flag name.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace rmrn::util {

/// Strict number parsers, shared by Flags and the experiment config reader
/// (harness/config_io): all of `text` must be one number, so empty text and
/// trailing junk ("5%", "0.05percent") give nullopt, as does a value the
/// type cannot hold.
[[nodiscard]] std::optional<double> parseDouble(const std::string& text);
[[nodiscard]] std::optional<std::int64_t> parseInt(const std::string& text);
/// Digits only: a sign gives nullopt, so "-1" never wraps to 2^64 - 1.
[[nodiscard]] std::optional<std::uint64_t> parseUnsigned(
    const std::string& text);

class Flags {
 public:
  /// Parses argv[1..).  Throws std::invalid_argument on malformed input
  /// (e.g. "--=x").
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Raw value; empty when absent.
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  [[nodiscard]] std::string getString(const std::string& name,
                                      const std::string& fallback) const;
  [[nodiscard]] double getDouble(const std::string& name,
                                 double fallback) const;
  [[nodiscard]] std::int64_t getInt(const std::string& name,
                                    std::int64_t fallback) const;
  /// Rejects values above `max` (inclusive), e.g. 2^32 for a flag that
  /// narrows to 32 bits.
  [[nodiscard]] std::uint64_t getUnsigned(
      const std::string& name, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  [[nodiscard]] bool getBool(const std::string& name, bool fallback) const;

  /// Comma-separated list ("2,5,10"), `fallback` when absent, returned
  /// sorted.  Every entry must parse completely and lie in [min, max]; an
  /// empty list or entry throws.  T is double or std::uint32_t.
  template <typename T>
  [[nodiscard]] std::vector<T> getList(const std::string& name,
                                       const std::string& fallback, T min,
                                       T max) const;

  /// Arguments that are not flags, in order (e.g. a subcommand).
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Flags that were parsed but never queried; call after all getters to
  /// reject typos.  Returns the unknown names.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  std::unordered_map<std::string, std::string> values_;
  mutable std::unordered_map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
};

}  // namespace rmrn::util
