#include "util/flags.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace rmrn::util {

std::optional<double> parseDouble(const std::string& text) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos == text.size()) return value;
  } catch (const std::exception&) {
    // std::invalid_argument (no number) or std::out_of_range.
  }
  return std::nullopt;
}

std::optional<std::int64_t> parseInt(const std::string& text) {
  try {
    std::size_t pos = 0;
    const std::int64_t value = std::stoll(text, &pos);
    if (pos == text.size()) return value;
  } catch (const std::exception&) {
    // std::invalid_argument (no number) or std::out_of_range.
  }
  return std::nullopt;
}

std::optional<std::uint64_t> parseUnsigned(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

namespace {

// The value of --name as a number / an integer; throws naming the flag.
double flagNumber(const std::string& name, const std::string& raw) {
  if (const auto value = parseDouble(raw)) return *value;
  throw std::invalid_argument("Flags: --" + name + " expects a number, got '" +
                              raw + "'");
}

std::int64_t flagInteger(const std::string& name, const std::string& raw) {
  if (const auto value = parseInt(raw)) return *value;
  throw std::invalid_argument("Flags: --" + name +
                              " expects an integer, got '" + raw + "'");
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) {
      throw std::invalid_argument("Flags: bare '--' is not a flag");
    }
    const auto eq = body.find('=');
    if (eq == 0) {
      throw std::invalid_argument("Flags: missing flag name in '" + arg +
                                  "'");
    }
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" unless the next token is another flag (then a switch).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const {
  consumed_[name] = true;
  return values_.contains(name);
}

std::optional<std::string> Flags::get(const std::string& name) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::getString(const std::string& name,
                             const std::string& fallback) const {
  return get(name).value_or(fallback);
}

double Flags::getDouble(const std::string& name, double fallback) const {
  const auto raw = get(name);
  if (!raw) return fallback;
  return flagNumber(name, *raw);
}

std::int64_t Flags::getInt(const std::string& name,
                           std::int64_t fallback) const {
  const auto raw = get(name);
  if (!raw) return fallback;
  return flagInteger(name, *raw);
}

std::uint64_t Flags::getUnsigned(const std::string& name,
                                 std::uint64_t fallback,
                                 std::uint64_t max) const {
  const auto raw = get(name);
  if (!raw) return fallback;
  const auto value = parseUnsigned(*raw);
  if (!value) {
    throw std::invalid_argument("Flags: --" + name +
                                " expects an unsigned integer, got '" + *raw +
                                "'");
  }
  if (*value > max) {
    throw std::invalid_argument("Flags: --" + name + " must be <= " +
                                std::to_string(max) + ", got " + *raw);
  }
  return *value;
}

bool Flags::getBool(const std::string& name, bool fallback) const {
  const auto raw = get(name);
  if (!raw) return fallback;
  if (*raw == "true" || *raw == "1" || *raw == "yes" || *raw == "on") {
    return true;
  }
  if (*raw == "false" || *raw == "0" || *raw == "no" || *raw == "off") {
    return false;
  }
  throw std::invalid_argument("Flags: --" + name +
                              " expects a boolean, got '" + *raw + "'");
}

template <typename T>
std::vector<T> Flags::getList(const std::string& name,
                              const std::string& fallback, T min,
                              T max) const {
  const std::string list = get(name).value_or(fallback);
  std::vector<T> values;
  // The appended comma ends every entry, so a trailing comma in `list`
  // leaves an empty last entry.
  std::istringstream stream(list + ",");
  for (std::string token; std::getline(stream, token, ',');) {
    T value{};
    bool ok = !token.empty();
    if constexpr (std::is_floating_point_v<T>) {
      value = ok ? flagNumber(name, token) : 0.0;
      ok = ok && value >= min && value <= max;  // false for NaN
    } else {
      const std::int64_t raw = ok ? flagInteger(name, token) : 0;
      ok = ok && std::cmp_greater_equal(raw, min) &&
           std::cmp_less_equal(raw, max);
      value = static_cast<T>(raw);
    }
    if (!ok) {
      std::ostringstream message;
      message << "Flags: --" << name
              << " expects a comma-separated list of values in [" << min
              << ", " << max << "], got '" << list << "'";
      throw std::invalid_argument(message.str());
    }
    values.push_back(value);
  }
  std::sort(values.begin(), values.end());
  return values;
}

template std::vector<double> Flags::getList(const std::string&,
                                            const std::string&, double,
                                            double) const;
template std::vector<std::uint32_t> Flags::getList(const std::string&,
                                                   const std::string&,
                                                   std::uint32_t,
                                                   std::uint32_t) const;

std::vector<std::string> Flags::unconsumed() const {
  std::vector<std::string> result;
  for (const auto& [name, value] : values_) {
    if (!consumed_.contains(name)) result.push_back(name);
  }
  return result;
}

}  // namespace rmrn::util
