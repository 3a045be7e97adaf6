#include "harness/config_io.hpp"

#include <functional>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace rmrn::harness {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

std::string costModelName(core::CostModel model) {
  return std::string(core::toString(model));
}

core::CostModel parseCostModel(const std::string& name) {
  if (name == "expected") return core::CostModel::kExpected;
  if (name == "timeout-only") return core::CostModel::kTimeoutOnly;
  if (name == "rtt-only") return core::CostModel::kRttOnly;
  throw std::invalid_argument("unknown cost model '" + name + "'");
}

std::string sourceModeName(protocols::SourceRecoveryMode mode) {
  return mode == protocols::SourceRecoveryMode::kUnicast ? "unicast"
                                                         : "subgroup";
}

protocols::SourceRecoveryMode parseSourceMode(const std::string& name) {
  if (name == "unicast") return protocols::SourceRecoveryMode::kUnicast;
  if (name == "subgroup") {
    return protocols::SourceRecoveryMode::kSubgroupMulticast;
  }
  throw std::invalid_argument("unknown source mode '" + name + "'");
}

}  // namespace

void writeConfig(std::ostream& out, const ExperimentConfig& c) {
  const auto old_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "# rmrn experiment configuration\n";
  out << "num_nodes = " << c.num_nodes << "\n";
  out << "loss_prob = " << c.loss_prob << "\n";
  out << "num_packets = " << c.num_packets << "\n";
  out << "data_interval_ms = " << c.data_interval_ms << "\n";
  out << "seed = " << c.seed << "\n";
  out << "mean_burst_packets = " << c.mean_burst_packets << "\n";
  out << "lossy_recovery = " << (c.lossy_recovery ? "true" : "false") << "\n";
  out << "topology.model = "
      << (c.topology.model == net::BackboneModel::kWaxman ? "waxman"
                                                          : "tree")
      << "\n";
  out << "topology.extra_edge_fraction = " << c.topology.extra_edge_fraction
      << "\n";
  out << "topology.waxman_alpha = " << c.topology.waxman_alpha << "\n";
  out << "topology.waxman_beta = " << c.topology.waxman_beta << "\n";
  out << "topology.min_base_delay = " << c.topology.min_base_delay << "\n";
  out << "topology.max_base_delay = " << c.topology.max_base_delay << "\n";
  out << "protocol.detection_delay_ms = " << c.protocol.detection_delay_ms
      << "\n";
  out << "protocol.timeout_factor = " << c.protocol.timeout_factor << "\n";
  out << "protocol.min_timeout_ms = " << c.protocol.min_timeout_ms << "\n";
  out << "protocol.session_deadline_ms = " << c.protocol.session_deadline_ms
      << "\n";
  out << "health.enabled = " << (c.protocol.health.enabled ? "true" : "false")
      << "\n";
  out << "health.blacklist_after = " << c.protocol.health.blacklist_after
      << "\n";
  out << "health.retry_budget = " << c.protocol.health.retry_budget << "\n";
  out << "health.max_backoff_factor = " << c.protocol.health.max_backoff_factor
      << "\n";
  out << "faults.crash_fraction = " << c.faults.crash_fraction << "\n";
  out << "faults.stall_fraction = " << c.faults.stall_fraction << "\n";
  out << "faults.slow_fraction = " << c.faults.slow_fraction << "\n";
  out << "faults.at_ms = " << c.faults.at_ms << "\n";
  out << "faults.stagger_ms = " << c.faults.stagger_ms << "\n";
  out << "faults.slow_extra_ms = " << c.faults.slow_extra_ms << "\n";
  out << "faults.seed = " << c.faults.seed << "\n";
  out << "faults.link_flap_fraction = " << c.faults.link_flap_fraction << "\n";
  out << "faults.flap_down_ms = " << c.faults.flap_down_ms << "\n";
  out << "faults.flap_cycles = " << c.faults.flap_cycles << "\n";
  out << "faults.flap_period_ms = " << c.faults.flap_period_ms << "\n";
  out << "faults.partition_fraction = " << c.faults.partition_fraction << "\n";
  out << "faults.partition_heal_ms = " << c.faults.partition_heal_ms << "\n";
  out << "faults.duplicate_prob = " << c.faults.duplicate_prob << "\n";
  out << "faults.reorder_jitter_ms = " << c.faults.reorder_jitter_ms << "\n";
  out << "audit_failover_plans = "
      << (c.audit_failover_plans ? "true" : "false") << "\n";
  out << "srm.c1 = " << c.srm.c1 << "\n";
  out << "srm.c2 = " << c.srm.c2 << "\n";
  out << "srm.d1 = " << c.srm.d1 << "\n";
  out << "srm.d2 = " << c.srm.d2 << "\n";
  out << "srm.hold_factor = " << c.srm.hold_factor << "\n";
  out << "parity.block_size = " << c.parity.block_size << "\n";
  out << "parity.gather_window_ms = " << c.parity.gather_window_ms << "\n";
  out << "coded.window_size = " << c.coded.window_size << "\n";
  out << "coded.gather_window_ms = " << c.coded.gather_window_ms << "\n";
  out << "rp.timeout_ms = " << c.rp_planner.timeout_ms << "\n";
  out << "rp.per_peer_timeout_factor = "
      << c.rp_planner.per_peer_timeout_factor << "\n";
  out << "rp.cost_model = " << costModelName(c.rp_planner.cost_model) << "\n";
  out << "rp.allow_direct_source = "
      << (c.rp_planner.allow_direct_source ? "true" : "false") << "\n";
  if (c.rp_planner.max_list_length !=
      std::numeric_limits<std::size_t>::max()) {
    out << "rp.max_list_length = " << c.rp_planner.max_list_length << "\n";
  }
  out << "rp.source_mode = " << sourceModeName(c.rp_source_mode) << "\n";
  out.precision(old_precision);
}

ExperimentConfig readConfig(std::istream& in) {
  ExperimentConfig config;

  using Setter = std::function<void(const std::string&)>;
  const auto asDouble = [](double& field) {
    return [&field](const std::string& v) { field = std::stod(v); };
  };
  const auto asU32 = [](std::uint32_t& field) {
    return [&field](const std::string& v) {
      field = static_cast<std::uint32_t>(std::stoul(v));
    };
  };
  const auto asBool = [](bool& field) {
    return [&field](const std::string& v) {
      if (v == "true") {
        field = true;
      } else if (v == "false") {
        field = false;
      } else {
        throw std::invalid_argument("expected true/false, got '" + v + "'");
      }
    };
  };

  const std::unordered_map<std::string, Setter> setters{
      {"num_nodes", asU32(config.num_nodes)},
      {"loss_prob", asDouble(config.loss_prob)},
      {"num_packets", asU32(config.num_packets)},
      {"data_interval_ms", asDouble(config.data_interval_ms)},
      {"seed",
       [&config](const std::string& v) { config.seed = std::stoull(v); }},
      {"mean_burst_packets", asDouble(config.mean_burst_packets)},
      {"lossy_recovery", asBool(config.lossy_recovery)},
      {"topology.model",
       [&config](const std::string& v) {
         if (v == "tree") {
           config.topology.model = net::BackboneModel::kTreePlusEdges;
         } else if (v == "waxman") {
           config.topology.model = net::BackboneModel::kWaxman;
         } else {
           throw std::invalid_argument("unknown topology model '" + v + "'");
         }
       }},
      {"topology.extra_edge_fraction",
       asDouble(config.topology.extra_edge_fraction)},
      {"topology.waxman_alpha", asDouble(config.topology.waxman_alpha)},
      {"topology.waxman_beta", asDouble(config.topology.waxman_beta)},
      {"topology.min_base_delay", asDouble(config.topology.min_base_delay)},
      {"topology.max_base_delay", asDouble(config.topology.max_base_delay)},
      {"protocol.detection_delay_ms",
       asDouble(config.protocol.detection_delay_ms)},
      {"protocol.timeout_factor", asDouble(config.protocol.timeout_factor)},
      {"protocol.min_timeout_ms", asDouble(config.protocol.min_timeout_ms)},
      {"protocol.session_deadline_ms",
       asDouble(config.protocol.session_deadline_ms)},
      {"health.enabled", asBool(config.protocol.health.enabled)},
      {"health.blacklist_after", asU32(config.protocol.health.blacklist_after)},
      {"health.retry_budget", asU32(config.protocol.health.retry_budget)},
      {"health.max_backoff_factor",
       asDouble(config.protocol.health.max_backoff_factor)},
      {"faults.crash_fraction", asDouble(config.faults.crash_fraction)},
      {"faults.stall_fraction", asDouble(config.faults.stall_fraction)},
      {"faults.slow_fraction", asDouble(config.faults.slow_fraction)},
      {"faults.at_ms", asDouble(config.faults.at_ms)},
      {"faults.stagger_ms", asDouble(config.faults.stagger_ms)},
      {"faults.slow_extra_ms", asDouble(config.faults.slow_extra_ms)},
      {"faults.seed",
       [&config](const std::string& v) {
         config.faults.seed = std::stoull(v);
       }},
      {"faults.link_flap_fraction",
       asDouble(config.faults.link_flap_fraction)},
      {"faults.flap_down_ms", asDouble(config.faults.flap_down_ms)},
      {"faults.flap_cycles", asU32(config.faults.flap_cycles)},
      {"faults.flap_period_ms", asDouble(config.faults.flap_period_ms)},
      {"faults.partition_fraction",
       asDouble(config.faults.partition_fraction)},
      {"faults.partition_heal_ms", asDouble(config.faults.partition_heal_ms)},
      {"faults.duplicate_prob", asDouble(config.faults.duplicate_prob)},
      {"faults.reorder_jitter_ms", asDouble(config.faults.reorder_jitter_ms)},
      {"audit_failover_plans", asBool(config.audit_failover_plans)},
      {"srm.c1", asDouble(config.srm.c1)},
      {"srm.c2", asDouble(config.srm.c2)},
      {"srm.d1", asDouble(config.srm.d1)},
      {"srm.d2", asDouble(config.srm.d2)},
      {"srm.hold_factor", asDouble(config.srm.hold_factor)},
      {"parity.block_size", asU32(config.parity.block_size)},
      {"parity.gather_window_ms",
       asDouble(config.parity.gather_window_ms)},
      {"coded.window_size", asU32(config.coded.window_size)},
      {"coded.gather_window_ms", asDouble(config.coded.gather_window_ms)},
      {"rp.timeout_ms", asDouble(config.rp_planner.timeout_ms)},
      {"rp.per_peer_timeout_factor",
       asDouble(config.rp_planner.per_peer_timeout_factor)},
      {"rp.cost_model",
       [&config](const std::string& v) {
         config.rp_planner.cost_model = parseCostModel(v);
       }},
      {"rp.allow_direct_source",
       asBool(config.rp_planner.allow_direct_source)},
      {"rp.max_list_length",
       [&config](const std::string& v) {
         config.rp_planner.max_list_length = std::stoul(v);
       }},
      {"rp.source_mode",
       [&config](const std::string& v) {
         config.rp_source_mode = parseSourceMode(v);
       }},
  };

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("readConfig: line " + std::to_string(line_no) +
                               ": expected 'key = value'");
    }
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    const auto it = setters.find(key);
    if (it == setters.end()) {
      throw std::runtime_error("readConfig: line " + std::to_string(line_no) +
                               ": unknown key '" + key + "'");
    }
    try {
      it->second(value);
    } catch (const std::exception& e) {
      throw std::runtime_error("readConfig: line " + std::to_string(line_no) +
                               ": " + e.what());
    }
  }
  return config;
}

}  // namespace rmrn::harness
