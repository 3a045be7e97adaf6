#include "harness/config_io.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/flags.hpp"

namespace rmrn::harness {

namespace {

/// One enum spelling, used both to print and to parse.
template <typename Enum>
struct EnumName {
  Enum value;
  std::string_view name;
};

using core::CostModel;
using net::BackboneModel;
using protocols::SourceRecoveryMode;

constexpr EnumName<CostModel> kCostModels[] = {
    {CostModel::kExpected, core::toString(CostModel::kExpected)},
    {CostModel::kTimeoutOnly, core::toString(CostModel::kTimeoutOnly)},
    {CostModel::kRttOnly, core::toString(CostModel::kRttOnly)},
};
constexpr EnumName<BackboneModel> kBackboneModels[] = {
    {BackboneModel::kTreePlusEdges, "tree"},
    {BackboneModel::kWaxman, "waxman"},
};
constexpr EnumName<SourceRecoveryMode> kSourceModes[] = {
    {SourceRecoveryMode::kUnicast, "unicast"},
    {SourceRecoveryMode::kSubgroupMulticast, "subgroup"},
};

std::span<const EnumName<CostModel>> namesOf(CostModel) { return kCostModels; }
std::span<const EnumName<BackboneModel>> namesOf(BackboneModel) {
  return kBackboneModels;
}
std::span<const EnumName<SourceRecoveryMode>> namesOf(SourceRecoveryMode) {
  return kSourceModes;
}

/// The key table: every key of the file, in file order, bound to its field
/// of `c` (an ExperimentConfig, const when writing).  writeConfig and
/// readConfig both walk it; a field's type picks its codec.
template <typename Config, typename Visit>
void forEachKey(Config& c, Visit&& key) {
  key("num_nodes", c.num_nodes);
  key("loss_prob", c.loss_prob);
  key("num_packets", c.num_packets);
  key("data_interval_ms", c.data_interval_ms);
  key("seed", c.seed);
  key("mean_burst_packets", c.mean_burst_packets);
  key("lossy_recovery", c.lossy_recovery);
  key("topology.model", c.topology.model);
  key("topology.extra_edge_fraction", c.topology.extra_edge_fraction);
  key("topology.waxman_alpha", c.topology.waxman_alpha);
  key("topology.waxman_beta", c.topology.waxman_beta);
  key("topology.min_base_delay", c.topology.min_base_delay);
  key("topology.max_base_delay", c.topology.max_base_delay);
  key("protocol.detection_delay_ms", c.protocol.detection_delay_ms);
  key("protocol.timeout_factor", c.protocol.timeout_factor);
  key("protocol.min_timeout_ms", c.protocol.min_timeout_ms);
  key("protocol.session_deadline_ms", c.protocol.session_deadline_ms);
  key("health.enabled", c.protocol.health.enabled);
  key("health.blacklist_after", c.protocol.health.blacklist_after);
  key("health.retry_budget", c.protocol.health.retry_budget);
  key("health.max_backoff_factor", c.protocol.health.max_backoff_factor);
  key("health.srtt_alpha", c.protocol.health.srtt_alpha);
  key("health.rttvar_beta", c.protocol.health.rttvar_beta);
  key("health.rttvar_gain", c.protocol.health.rttvar_gain);
  key("health.backoff_base", c.protocol.health.backoff_base);
  key("faults.crash_fraction", c.faults.crash_fraction);
  key("faults.stall_fraction", c.faults.stall_fraction);
  key("faults.slow_fraction", c.faults.slow_fraction);
  key("faults.at_ms", c.faults.at_ms);
  key("faults.stagger_ms", c.faults.stagger_ms);
  key("faults.slow_extra_ms", c.faults.slow_extra_ms);
  key("faults.seed", c.faults.seed);
  key("faults.link_flap_fraction", c.faults.link_flap_fraction);
  key("faults.flap_down_ms", c.faults.flap_down_ms);
  key("faults.flap_cycles", c.faults.flap_cycles);
  key("faults.flap_period_ms", c.faults.flap_period_ms);
  key("faults.partition_fraction", c.faults.partition_fraction);
  key("faults.partition_heal_ms", c.faults.partition_heal_ms);
  key("faults.duplicate_prob", c.faults.duplicate_prob);
  key("faults.reorder_jitter_ms", c.faults.reorder_jitter_ms);
  key("audit_failover_plans", c.audit_failover_plans);
  key("srm.c1", c.srm.c1);
  key("srm.c2", c.srm.c2);
  key("srm.d1", c.srm.d1);
  key("srm.d2", c.srm.d2);
  key("srm.hold_factor", c.srm.hold_factor);
  key("srm.max_backoff", c.srm.max_backoff);
  key("parity.block_size", c.parity.block_size);
  key("parity.gather_window_ms", c.parity.gather_window_ms);
  key("coded.window_size", c.coded.window_size);
  key("coded.gather_window_ms", c.coded.gather_window_ms);
  key("rp.timeout_ms", c.rp_planner.timeout_ms);
  key("rp.per_peer_timeout_factor", c.rp_planner.per_peer_timeout_factor);
  key("rp.min_timeout_ms", c.rp_planner.min_timeout_ms);
  key("rp.cost_model", c.rp_planner.cost_model);
  key("rp.allow_direct_source", c.rp_planner.allow_direct_source);
  key("rp.max_list_length", c.rp_planner.max_list_length);
  key("rp.audit", c.rp_planner.audit);
  key("rp.source_mode", c.rp_source_mode);
}

template <typename T>
void print(std::ostream& out, T value) {
  if constexpr (std::is_same_v<T, bool>) {
    out << (value ? "true" : "false");
  } else if constexpr (std::is_enum_v<T>) {
    for (const auto& [v, name] : namesOf(value)) {
      if (v == value) out << name;
    }
  } else {
    out << value;
  }
}

template <typename T>
T parse(const std::string& text) {
  if constexpr (std::is_same_v<T, bool>) {
    if (text == "true" || text == "false") return text == "true";
    throw std::invalid_argument("expects true or false, got '" + text + "'");
  } else if constexpr (std::is_enum_v<T>) {
    std::string names;
    for (const auto& [value, name] : namesOf(T{})) {
      if (name == text) return value;
      if (!names.empty()) names += '|';
      names += name;
    }
    throw std::invalid_argument("expects one of " + names + ", got '" +
                                text + "'");
  } else if constexpr (std::is_floating_point_v<T>) {
    if (const auto value = util::parseDouble(text)) return *value;
    throw std::invalid_argument("expects a number, got '" + text + "'");
  } else {
    static_assert(std::is_unsigned_v<T>);
    const auto value = util::parseUnsigned(text);
    if (value && *value <= std::numeric_limits<T>::max()) {
      return static_cast<T>(*value);
    }
    throw std::invalid_argument(
        "expects an integer in [0, " +
        std::to_string(std::numeric_limits<T>::max()) + "], got '" + text +
        "'");
  }
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

void writeConfig(std::ostream& out, const ExperimentConfig& config) {
  const auto old_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "# rmrn experiment configuration\n";
  forEachKey(config, [&out](std::string_view key, const auto& field) {
    out << key << " = ";
    print(out, field);
    out << "\n";
  });
  out.precision(old_precision);
}

ExperimentConfig readConfig(std::istream& in) {
  ExperimentConfig config;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto fail = [line_no](const std::string& what) {
      return std::runtime_error("readConfig: line " + std::to_string(line_no) +
                                ": " + what);
    };
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) throw fail("expected 'key = value'");
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    bool known = false;
    forEachKey(config, [&](std::string_view name, auto& field) {
      if (name != key) return;
      known = true;
      try {
        field = parse<std::remove_reference_t<decltype(field)>>(value);
      } catch (const std::invalid_argument& e) {
        throw fail(key + ": " + e.what());
      }
    });
    if (!known) throw fail("unknown key '" + key + "'");
  }
  return config;
}

}  // namespace rmrn::harness
