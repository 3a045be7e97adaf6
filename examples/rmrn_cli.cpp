// rmrn — the command-line front end a downstream user drives the library
// with.  Subcommands:
//
//   rmrn_cli gen  --nodes N [--seed S] [--out base]
//       Generate a topology; print a summary; optionally write base.topo
//       (rmrn text format) and base.dot (Graphviz).
//
//   rmrn_cli plan --topo file.topo [--client id] [--timeout-factor F]
//                 [--threads T]
//       Load a topology and print the RP strategy of one client (or all).
//       Builds a sparse routing table (clients + source only) and plans with
//       T worker threads (0 = hardware concurrency); output is identical for
//       every T.
//
//   rmrn_cli run  [--config file] [--nodes N] [--loss P%] [--packets K]
//                 [--seed S] [--runs R] [--protocols srm,rma,rp,src,fec]
//                 [--burst B] [--lossy-recovery] [--csv out.csv]
//                 [--threads T]
//       Run the protocol comparison; print the paper-style table.  T worker
//       threads fan out the per-seed repetitions (0 = hardware concurrency).
//
//   rmrn_cli transfer [--topo file.topo | --nodes N] [--mb M] [--loss P%]
//                     [--protocol rp|srm|rma|src|fec] [--seed S]
//                     [--lossy-recovery]
//       Run a reliable file transfer and report per-client completion.
//
//   rmrn_cli audit [--topo file.topo | --nodes N --seed S]
//                  [--timeout-factor F] [--threads T] [--json]
//       Plan every client, then referee the plans with core::PlanAuditor
//       (independent Eqs. 1-3 delay recomputation + Lemma 4-5 list checks).
//       Prints the violation report (or JSON with --json, for CI gating);
//       exit 0 when clean, 1 when any violation is found.
//
//   rmrn_cli resilience [--nodes N] [--loss P%] [--packets K] [--seed S]
//                       [--runs R] [--rates 0,5,10,20] [--fault-time MS]
//                       [--fault-seed S] [--threads T]
//                       [--out BENCH_resilience.json] [--json]
//       Sweep mid-run client-crash rates (percent of clients, RP protocol,
//       rate 0 = no-fault baseline) and report recovery robustness: residual
//       unrecovered losses, retries/timeouts/blacklists/failovers and the
//       survivors' mean recovery delay vs the baseline.  Writes the sweep as
//       JSON to --out; --json prints the same JSON to stdout (CI smoke).
//
//   rmrn_cli chaos [--nodes N] [--loss P%] [--packets K] [--seed S]
//                  [--runs R] [--threads T] [--out BENCH_chaos.json] [--json]
//       Chaos sweep (RP protocol): a fixed grid of link-fault scenarios —
//       group partition (healed and permanent) x link flaps x per-link
//       duplication/reorder jitter — each run with the per-session liveness
//       watchdog and failover-plan auditing on.  Gates per row: zero
//       unrecovered losses among source-reachable clients, recovered
//       fraction 1 for them, no duplicate recovery sessions at <= 20%
//       duplication, and zero failover-plan audit violations.  Writes the
//       sweep as JSON to --out; --json prints it to stdout (CI smoke); exit
//       1 when any gate fails.
//
//   rmrn_cli scale [--sizes 3000,30000,300000,2000000] [--shard K] [--seed S]
//                  [--churn-ops N] [--threads T] [--flat-max K]
//                  [--out BENCH_scale.json] [--json]
//       Hierarchical-planner scale sweep (DESIGN.md §11): shallow
//       random-recursive-tree topologies (depth ~ ln n, clients ~ n/2,
//       the shape of real distribution trees) with tree-metric routing.
//       Per size:
//       whole-group ShardPlanner build time, then N remove+re-add churn
//       cycles timed per operation (microsecond percentiles) with the
//       fraction touching a single shard.  Sizes whose client count is at
//       most --flat-max are also cross-checked: plans must equal the flat
//       RpPlanner bit for bit and audit clean.  Writes the sweep as JSON to
//       --out; --json prints it to stdout (CI smoke); exit 1 on any gate
//       failure.
//
//   rmrn_cli coded [--nodes N] [--packets K] [--seed S] [--runs R]
//                  [--burst B] [--losses 2,5,10,15,20,30] [--threads T]
//                  [--out BENCH_coded.json] [--json]
//       Coded-repair crossover sweep (DESIGN.md §13): RP vs the
//       sliding-window RLC arm over a grid of Gilbert-Elliott loss rates,
//       identical draws per rate.  Per row: losses, each arm's source
//       transmissions (RP REQUESTs answered vs coded repair multicasts),
//       latency/bandwidth, residuals.  Reports the crossover — the lowest
//       swept rate from which coding touches the source less than RP.
//       Gates: both arms fully recover every row (zero reachable residual)
//       and the crossover exists.  Writes the sweep as JSON to --out;
//       --json prints it to stdout (CI smoke); exit 1 on any gate failure.
//
//   rmrn_cli parsim [--nodes N] [--packets K] [--loss P%] [--seed S]
//                   [--regions R] [--workers 1,2,4] [--protocol rp|srm|...]
//                   [--lossy-recovery] [--repeats N]
//                   [--out BENCH_parsim.json] [--json]
//       Sharded parallel engine sweep (DESIGN.md §14): one seeded transfer
//       replayed at each worker count over the FIXED canonical region set.
//       Gates (exit 1 on failure): every worker count's report bit-identical
//       to the 1-worker run, and the transfer complete.  Speedups are
//       recorded, not gated — CI gates them only on multi-core runners (the
//       JSON records hardware_concurrency honestly).
//
//   rmrn_cli config [--out file]
//       Print (or write) a complete default experiment config to edit.
#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/auditor.hpp"
#include "core/planner.hpp"
#include "core/shard_planner.hpp"
#include "harness/bench_json.hpp"
#include "harness/config_io.hpp"
#include "harness/csv.hpp"
#include "harness/experiment.hpp"
#include "harness/parsim.hpp"
#include "harness/table.hpp"
#include "harness/transfer.hpp"
#include "net/serialization.hpp"
#include "sim/event.hpp"
#include "util/flags.hpp"

namespace {

using namespace rmrn;

int usage() {
  std::cerr << "usage: rmrn_cli <gen|plan|run|transfer|audit|resilience"
               "|chaos|scale|coded|parsim|config> [--flags]\n"
               "  see the header comment of examples/rmrn_cli.cpp\n";
  return 2;
}

int failUnknownFlags(const util::Flags& flags) {
  const auto unknown = flags.unconsumed();
  if (unknown.empty()) return 0;
  for (const auto& name : unknown) {
    std::cerr << "unknown flag --" << name << "\n";
  }
  return 2;
}

int cmdGen(const util::Flags& flags) {
  const auto nodes =
      static_cast<std::uint32_t>(flags.getUnsigned("nodes", 100));
  const std::uint64_t seed = flags.getUnsigned("seed", 1);
  const std::string out = flags.getString("out", "");
  if (const int rc = failUnknownFlags(flags)) return rc;

  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = nodes;
  const net::Topology topo = net::generateTopology(config, rng);
  std::cout << "Generated " << nodes << "-node topology (seed " << seed
            << "): " << topo.graph.numEdges() << " links, source "
            << topo.source << ", " << topo.clients.size() << " clients\n";
  if (!out.empty()) {
    std::ofstream topo_out(out + ".topo");
    net::writeTopology(topo_out, topo);
    std::ofstream dot_out(out + ".dot");
    net::writeDot(dot_out, topo);
    std::cout << "Wrote " << out << ".topo and " << out << ".dot\n";
  }
  return 0;
}

int cmdPlan(const util::Flags& flags) {
  const std::string path = flags.getString("topo", "");
  const std::int64_t client_flag = flags.getInt("client", -1);
  const double factor = flags.getDouble("timeout-factor", 1.5);
  const auto threads = static_cast<unsigned>(flags.getUnsigned("threads", 0));
  if (const int rc = failUnknownFlags(flags)) return rc;
  if (path.empty()) {
    std::cerr << "plan: --topo <file> is required\n";
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "plan: cannot open " << path << "\n";
    return 1;
  }
  const net::Topology topo = net::readTopology(in);
  // Planning only queries client->anything, so a sparse table (clients +
  // source rows) replaces the all-pairs build.
  std::vector<net::NodeId> route_sources = topo.clients;
  route_sources.push_back(topo.source);
  const net::Routing routing(topo.graph, route_sources, threads);
  core::PlannerOptions options;
  options.per_peer_timeout_factor = factor;
  options.num_threads = threads;
  const core::RpPlanner planner(topo, routing, options);

  const auto show = [&](net::NodeId u) {
    const core::Strategy& s = planner.strategyFor(u);
    std::cout << "client " << u << " (DS=" << topo.tree.depth(u) << "): [";
    for (std::size_t i = 0; i < s.peers.size(); ++i) {
      std::cout << (i ? ", " : "") << s.peers[i].peer << " (ds "
                << s.peers[i].ds << ", rtt "
                << harness::TextTable::num(s.peers[i].rtt_ms) << ")";
    }
    std::cout << "] -> S; expected delay "
              << harness::TextTable::num(s.expected_delay_ms) << " ms\n";
  };
  if (client_flag >= 0) {
    show(static_cast<net::NodeId>(client_flag));
  } else {
    for (const net::NodeId u : topo.clients) show(u);
  }
  return 0;
}

int cmdAudit(const util::Flags& flags) {
  const std::string path = flags.getString("topo", "");
  const auto nodes =
      static_cast<std::uint32_t>(flags.getUnsigned("nodes", 100));
  const std::uint64_t seed = flags.getUnsigned("seed", 1);
  const double factor = flags.getDouble("timeout-factor", 1.5);
  const auto threads = static_cast<unsigned>(flags.getUnsigned("threads", 0));
  const bool json = flags.getBool("json", false);
  if (const int rc = failUnknownFlags(flags)) return rc;

  net::Topology topo;
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "audit: cannot open " << path << "\n";
      return 1;
    }
    topo = net::readTopology(in);
  } else {
    util::Rng rng(seed);
    net::TopologyConfig config;
    config.num_nodes = nodes;
    topo = net::generateTopology(config, rng);
  }

  std::vector<net::NodeId> route_sources = topo.clients;
  route_sources.push_back(topo.source);
  const net::Routing routing(topo.graph, route_sources, threads);
  core::PlannerOptions options;
  options.per_peer_timeout_factor = factor;
  options.num_threads = threads;
  const core::RpPlanner planner(topo, routing, options);

  const core::PlanAuditor auditor(topo, routing);
  const core::AuditReport report = auditor.auditPlanner(planner);
  if (json) {
    core::writeReportJson(std::cout, report);
  } else {
    std::cout << report.summary();
    if (report.ok()) {
      std::cout << "all plans lemma-valid; reported delays match the "
                   "independent Eq. 2/3 recomputation\n";
    }
  }
  return report.ok() ? 0 : 1;
}

std::vector<harness::ProtocolKind> parseProtocols(const std::string& list) {
  std::vector<harness::ProtocolKind> kinds;
  std::stringstream stream(list);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token == "srm") {
      kinds.push_back(harness::ProtocolKind::kSrm);
    } else if (token == "rma") {
      kinds.push_back(harness::ProtocolKind::kRma);
    } else if (token == "rp") {
      kinds.push_back(harness::ProtocolKind::kRp);
    } else if (token == "src") {
      kinds.push_back(harness::ProtocolKind::kSourceDirect);
    } else if (token == "fec") {
      kinds.push_back(harness::ProtocolKind::kParityFec);
    } else if (token == "coded") {
      kinds.push_back(harness::ProtocolKind::kCodedRlc);
    } else {
      throw std::invalid_argument("unknown protocol '" + token + "'");
    }
  }
  return kinds;
}

int cmdRun(const util::Flags& flags) {
  harness::ExperimentConfig config;
  const std::string config_path = flags.getString("config", "");
  if (!config_path.empty()) {
    std::ifstream in(config_path);
    if (!in) {
      std::cerr << "run: cannot open " << config_path << "\n";
      return 1;
    }
    config = harness::readConfig(in);
  }
  config.num_nodes = static_cast<std::uint32_t>(
      flags.getUnsigned("nodes", config.num_nodes));
  if (flags.has("loss")) {
    config.loss_prob = flags.getDouble("loss", 5.0) / 100.0;
  }
  config.num_packets = static_cast<std::uint32_t>(
      flags.getUnsigned("packets", config.num_packets));
  config.seed = flags.getUnsigned("seed", config.seed);
  config.mean_burst_packets =
      flags.getDouble("burst", config.mean_burst_packets);
  config.lossy_recovery =
      flags.getBool("lossy-recovery", config.lossy_recovery);
  const auto runs =
      static_cast<std::uint32_t>(flags.getUnsigned("runs", 1));
  const auto kinds =
      parseProtocols(flags.getString("protocols", "srm,rma,rp"));
  const std::string csv_path = flags.getString("csv", "");
  const auto threads = static_cast<unsigned>(flags.getUnsigned("threads", 0));
  if (const int rc = failUnknownFlags(flags)) return rc;

  const auto wall_start = std::chrono::steady_clock::now();
  const harness::ExperimentResult result =
      harness::runAveragedExperimentParallel(config, runs, kinds, threads);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  std::cout << "n=" << config.num_nodes << " (k~" << result.num_clients
            << "), p=" << config.loss_prob * 100.0 << "%, "
            << config.num_packets << " packets x " << runs << " run(s)\n";
  harness::TextTable table({"protocol", "losses", "recovered",
                            "avg latency (ms)", "avg bandwidth (hops)",
                            "events"});
  std::uint64_t total_events = 0;
  std::array<std::uint64_t, sim::kNumEventKinds> events_by_kind{};
  for (const harness::ProtocolResult& r : result.protocols) {
    total_events += r.events_processed;
    for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
      events_by_kind[k] += r.events_by_kind[k];
    }
    table.addRow({std::string(toString(r.kind)), std::to_string(r.losses),
                  std::to_string(r.recoveries),
                  harness::TextTable::num(r.avg_latency_ms),
                  harness::TextTable::num(r.avg_bandwidth_hops),
                  std::to_string(r.events_processed)});
  }
  table.print(std::cout);
  // events/sec is sim-only: topology/routing/planner construction is setup,
  // not engine throughput.  Sim and setup are sums over repetitions, so
  // with --threads > 1 they exceed the elapsed wall.
  std::cout << "engine: " << total_events << " events (";
  for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
    std::cout << (k == 0 ? "" : ", ")
              << sim::toString(static_cast<sim::EventKind>(k)) << ' '
              << events_by_kind[k];
  }
  std::cout << ") in "
            << harness::TextTable::num(result.sim_wall_ms) << " ms sim ("
            << harness::TextTable::num(
                   result.sim_wall_ms > 0.0
                       ? static_cast<double>(total_events) /
                             (result.sim_wall_ms / 1000.0)
                       : 0.0)
            << " events/sec); setup "
            << harness::TextTable::num(result.setup_wall_ms)
            << " ms; elapsed " << harness::TextTable::num(wall_ms) << " ms\n";

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    harness::writeResultsCsv(out, {result});
    std::cout << "wrote " << csv_path << "\n";
  }
  bool ok = true;
  for (const auto& r : result.protocols) ok &= r.fully_recovered;
  return ok ? 0 : 1;
}

harness::ProtocolKind parseOneProtocol(const std::string& name) {
  const auto kinds = parseProtocols(name);
  if (kinds.size() != 1) {
    throw std::invalid_argument("--protocol expects exactly one scheme");
  }
  return kinds.front();
}

int cmdTransfer(const util::Flags& flags) {
  const std::string topo_path = flags.getString("topo", "");
  const auto nodes =
      static_cast<std::uint32_t>(flags.getUnsigned("nodes", 100));
  const double mb = flags.getDouble("mb", 4.0);
  const double loss = flags.getDouble("loss", 5.0) / 100.0;
  const auto kind = parseOneProtocol(flags.getString("protocol", "rp"));
  const std::uint64_t seed = flags.getUnsigned("seed", 1);
  const bool lossy_recovery = flags.getBool("lossy-recovery", false);
  if (const int rc = failUnknownFlags(flags)) return rc;

  net::Topology topo;
  if (!topo_path.empty()) {
    std::ifstream in(topo_path);
    if (!in) {
      std::cerr << "transfer: cannot open " << topo_path << "\n";
      return 1;
    }
    topo = net::readTopology(in);
  } else {
    util::Rng rng(seed);
    net::TopologyConfig topo_config;
    topo_config.num_nodes = nodes;
    topo = net::generateTopology(topo_config, rng);
  }

  harness::TransferConfig config;
  config.protocol = kind;
  config.num_packets = static_cast<std::uint32_t>(
      std::max(1.0, mb * 1024.0 / 32.0));  // 32 KiB packets
  config.loss_prob = loss;
  config.lossy_recovery = lossy_recovery;
  config.seed = seed;
  const harness::TransferReport report = harness::runTransfer(topo, config);

  std::cout << toString(kind) << " transfer of " << mb << " MB ("
            << config.num_packets << " packets) to " << topo.clients.size()
            << " clients at p=" << loss * 100.0 << "%:\n";
  std::cout << "  " << (report.complete ? "COMPLETE" : "INCOMPLETE")
            << " in " << harness::TextTable::num(report.duration_ms / 1000.0, 3)
            << " s; " << report.losses << " losses, avg recovery "
            << harness::TextTable::num(report.avg_recovery_latency_ms)
            << " ms, overhead "
            << harness::TextTable::num(100.0 * report.overhead, 1) << "%\n";
  return report.complete ? 0 : 1;
}

std::vector<double> parseRates(const std::string& list) {
  std::vector<double> rates;
  std::stringstream stream(list);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const double rate = std::stod(token);
    if (rate < 0.0 || rate > 100.0) {
      throw std::invalid_argument("--rates entries must be in [0, 100]");
    }
    rates.push_back(rate);
  }
  if (rates.empty()) throw std::invalid_argument("--rates must be non-empty");
  return rates;
}

int cmdResilience(const util::Flags& flags) {
  harness::ExperimentConfig config;
  config.num_nodes = static_cast<std::uint32_t>(
      flags.getUnsigned("nodes", config.num_nodes));
  if (flags.has("loss")) {
    config.loss_prob = flags.getDouble("loss", 5.0) / 100.0;
  }
  config.num_packets = static_cast<std::uint32_t>(
      flags.getUnsigned("packets", config.num_packets));
  config.seed = flags.getUnsigned("seed", config.seed);
  const auto runs = static_cast<std::uint32_t>(flags.getUnsigned("runs", 3));
  std::vector<double> rates = parseRates(flags.getString("rates", "0,5,10,20"));
  // Crash victims mid-stream by default so live recovery sessions are cut.
  const double default_fault_time =
      0.4 * config.num_packets * config.data_interval_ms;
  const double fault_time = flags.getDouble("fault-time", default_fault_time);
  const std::uint64_t fault_seed = flags.getUnsigned("fault-seed", config.seed);
  const auto threads = static_cast<unsigned>(flags.getUnsigned("threads", 0));
  const std::string out_path = flags.getString("out", "BENCH_resilience.json");
  const bool json_stdout = flags.getBool("json", false);
  if (const int rc = failUnknownFlags(flags)) return rc;

  // Rate 0 is the no-fault baseline every other rate is compared against.
  if (std::find(rates.begin(), rates.end(), 0.0) == rates.end()) {
    rates.insert(rates.begin(), 0.0);
  }
  std::sort(rates.begin(), rates.end());

  const harness::ProtocolKind kinds[] = {harness::ProtocolKind::kRp};
  struct Row {
    double crash_rate = 0.0;
    harness::ExperimentResult result;
  };
  std::vector<Row> rows;
  double num_clients = 0.0;
  for (const double rate : rates) {
    harness::ExperimentConfig swept = config;
    swept.faults.crash_fraction = rate / 100.0;
    swept.faults.at_ms = fault_time;
    swept.faults.seed = fault_seed;
    rows.push_back(
        {rate, harness::runAveragedExperimentParallel(swept, runs, kinds,
                                                      threads)});
    num_clients = rows.back().result.num_clients;
  }

  const harness::ProtocolResult& baseline =
      rows.front().result.result(harness::ProtocolKind::kRp);
  const double baseline_delay = baseline.avg_latency_ms;

  // Per-run client counts are integers (one per repetition, seed order);
  // mean_clients is their average.  Identical for every rate of the sweep
  // (same seeds -> same topologies), so report them once.
  const std::vector<std::uint32_t>& clients_per_run =
      rows.front().result.clients_per_run;

  std::ostringstream json;
  json.precision(10);
  json << "{\n";
  json << "  \"bench\": \"resilience\",\n";
  harness::writeBenchEnvelope(json);
  json << "  \"protocol\": \"RP\",\n";
  json << "  \"nodes\": " << config.num_nodes << ",\n";
  json << "  \"mean_clients\": " << num_clients << ",\n";
  json << "  \"clients_per_run\": [";
  for (std::size_t i = 0; i < clients_per_run.size(); ++i) {
    json << (i ? ", " : "") << clients_per_run[i];
  }
  json << "],\n";
  json << "  \"loss_prob\": " << config.loss_prob << ",\n";
  json << "  \"packets\": " << config.num_packets << ",\n";
  json << "  \"runs\": " << runs << ",\n";
  json << "  \"fault_time_ms\": " << fault_time << ",\n";
  json << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const harness::ProtocolResult& r =
        rows[i].result.result(harness::ProtocolKind::kRp);
    const std::size_t survivors_losses = r.losses - r.abandoned;
    const double recovered_fraction =
        survivors_losses == 0
            ? 1.0
            : static_cast<double>(r.recoveries) /
                  static_cast<double>(survivors_losses);
    const double vs_baseline =
        baseline_delay > 0.0 ? r.avg_latency_ms / baseline_delay : 1.0;
    json << "    {\"crash_rate\": " << rows[i].crash_rate
         << ", \"losses\": " << r.losses
         << ", \"recoveries\": " << r.recoveries
         << ", \"abandoned\": " << r.abandoned
         << ", \"residual_unrecovered\": " << r.residual
         << ", \"recovered_fraction\": " << recovered_fraction
         << ", \"mean_delay_ms\": " << r.avg_latency_ms
         << ", \"delay_vs_baseline\": " << vs_baseline
         << ", \"retries\": " << r.retries
         << ", \"timeouts\": " << r.timeouts
         << ", \"blacklist_events\": " << r.blacklist_events
         << ", \"failovers\": " << r.failovers
         << ", \"source_fallbacks\": " << r.source_fallbacks << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n";
  json << "}\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
  }
  if (json_stdout) {
    std::cout << json.str();
  } else {
    std::cout << "RP resilience sweep: n=" << config.num_nodes << " (k~"
              << num_clients << "), p=" << config.loss_prob * 100.0 << "%, "
              << config.num_packets << " packets x " << runs
              << " run(s), faults at " << fault_time << " ms\n";
    harness::TextTable table({"crash %", "losses", "recovered", "abandoned",
                              "residual", "delay (ms)", "vs base", "retries",
                              "blacklists", "failovers"});
    for (const Row& row : rows) {
      const harness::ProtocolResult& r =
          row.result.result(harness::ProtocolKind::kRp);
      const double vs_baseline =
          baseline_delay > 0.0 ? r.avg_latency_ms / baseline_delay : 1.0;
      table.addRow({harness::TextTable::num(row.crash_rate, 1),
                    std::to_string(r.losses), std::to_string(r.recoveries),
                    std::to_string(r.abandoned), std::to_string(r.residual),
                    harness::TextTable::num(r.avg_latency_ms),
                    harness::TextTable::num(vs_baseline, 2),
                    std::to_string(r.retries),
                    std::to_string(r.blacklist_events),
                    std::to_string(r.failovers)});
    }
    table.print(std::cout);
    if (!out_path.empty()) std::cout << "wrote " << out_path << "\n";
  }

  // The sweep passes when every surviving client recovered every loss.
  bool ok = true;
  for (const Row& row : rows) {
    ok &= row.result.result(harness::ProtocolKind::kRp).residual == 0;
  }
  return ok ? 0 : 1;
}

int cmdChaos(const util::Flags& flags) {
  harness::ExperimentConfig config;
  config.num_nodes = static_cast<std::uint32_t>(
      flags.getUnsigned("nodes", config.num_nodes));
  if (flags.has("loss")) {
    config.loss_prob = flags.getDouble("loss", 5.0) / 100.0;
  }
  config.num_packets = static_cast<std::uint32_t>(
      flags.getUnsigned("packets", config.num_packets));
  config.seed = flags.getUnsigned("seed", config.seed);
  const auto runs = static_cast<std::uint32_t>(flags.getUnsigned("runs", 2));
  const auto threads = static_cast<unsigned>(flags.getUnsigned("threads", 0));
  const std::string out_path = flags.getString("out", "BENCH_chaos.json");
  const bool json_stdout = flags.getBool("json", false);
  if (const int rc = failUnknownFlags(flags)) return rc;

  // Every failover replan RP adopts is re-refereed by the PlanAuditor with
  // the blacklisted peers excluded.
  config.audit_failover_plans = true;

  // Under link chaos the watchdog (not the retry budget) is the terminal
  // authority: a session must ride out a whole flap/partition-heal outage
  // — during which every request dies — without running out of attempts,
  // so that only genuinely unreachable clients are ever abandoned.  With
  // capped exponential backoff, 256 attempts outlast the 10 s watchdog.
  config.protocol.health.retry_budget = 256;

  // Chaos hits mid-stream; times scale with the data span so shorter CI
  // sweeps keep the same shape.
  const double span = config.num_packets * config.data_interval_ms;
  const double chaos_time = 0.4 * span;

  // Fixed scenario grid: partition (none / healed / permanent) x link flaps
  // x per-link duplication + reorder jitter.  The all-zero row is the
  // chaos-off baseline.
  struct Partition {
    const char* tag;
    double fraction;
    double heal_ms;  // 0 = permanent
  };
  const Partition partitions[] = {
      {"none", 0.0, 0.0},
      {"heal25", 0.25, 0.2 * span},
      {"perm25", 0.25, 0.0},
  };
  const double flap_rates[] = {0.0, 0.15};
  struct DupJitter {
    double dup;
    double jitter_ms;
  };
  const DupJitter dup_jitters[] = {{0.0, 0.0}, {0.15, 2.0}};

  struct Row {
    std::string name;
    sim::FaultPlan plan;
    harness::ExperimentResult result;
    bool ok = false;
  };
  const harness::ProtocolKind kinds[] = {harness::ProtocolKind::kRp};
  std::vector<Row> rows;
  for (const Partition& part : partitions) {
    for (const double flap : flap_rates) {
      for (const DupJitter& dj : dup_jitters) {
        sim::FaultPlan plan;
        plan.seed = config.seed;
        plan.at_ms = chaos_time;
        plan.stagger_ms = config.data_interval_ms;
        plan.partition_fraction = part.fraction;
        plan.partition_heal_ms = part.heal_ms;
        plan.link_flap_fraction = flap;
        if (flap > 0.0) {
          plan.flap_down_ms = 0.1 * span;
          plan.flap_cycles = 2;
          plan.flap_period_ms = 0.25 * span;
        }
        plan.duplicate_prob = dj.dup;
        plan.reorder_jitter_ms = dj.jitter_ms;

        std::ostringstream name;
        name << "part=" << part.tag << " flap=" << flap * 100.0
             << "% dup=" << dj.dup * 100.0 << "% jitter=" << dj.jitter_ms
             << "ms";

        harness::ExperimentConfig swept = config;
        swept.faults = plan;
        Row row;
        row.name = name.str();
        row.plan = plan;
        row.result =
            harness::runAveragedExperimentParallel(swept, runs, kinds, threads);

        const harness::ProtocolResult& r =
            row.result.result(harness::ProtocolKind::kRp);
        // Gates: every source-reachable client recovered everything, no
        // duplicate recovery sessions at moderate duplication, and every
        // adopted failover plan passed the independent audit.
        row.ok = r.residual_reachable == 0 &&
                 r.reachable_losses == r.reachable_recoveries &&
                 r.plan_audit_violations == 0 &&
                 (plan.duplicate_prob > 0.2 || r.duplicate_sessions == 0);
        rows.push_back(std::move(row));
      }
    }
  }

  const std::vector<std::uint32_t>& clients_per_run =
      rows.front().result.clients_per_run;
  const double num_clients = rows.front().result.num_clients;

  std::ostringstream json;
  json.precision(10);
  json << "{\n";
  json << "  \"bench\": \"chaos\",\n";
  harness::writeBenchEnvelope(json);
  json << "  \"protocol\": \"RP\",\n";
  json << "  \"nodes\": " << config.num_nodes << ",\n";
  json << "  \"mean_clients\": " << num_clients << ",\n";
  json << "  \"clients_per_run\": [";
  for (std::size_t i = 0; i < clients_per_run.size(); ++i) {
    json << (i ? ", " : "") << clients_per_run[i];
  }
  json << "],\n";
  json << "  \"loss_prob\": " << config.loss_prob << ",\n";
  json << "  \"packets\": " << config.num_packets << ",\n";
  json << "  \"runs\": " << runs << ",\n";
  json << "  \"chaos_time_ms\": " << chaos_time << ",\n";
  json << "  \"sweep\": [\n";
  bool all_ok = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const harness::ProtocolResult& r =
        row.result.result(harness::ProtocolKind::kRp);
    const double recovered_fraction =
        r.reachable_losses == 0
            ? 1.0
            : static_cast<double>(r.reachable_recoveries) /
                  static_cast<double>(r.reachable_losses);
    all_ok &= row.ok;
    json << "    {\"name\": \"" << row.name << "\""
         << ", \"partition_fraction\": " << row.plan.partition_fraction
         << ", \"partition_heal_ms\": " << row.plan.partition_heal_ms
         << ", \"link_flap_fraction\": " << row.plan.link_flap_fraction
         << ", \"duplicate_prob\": " << row.plan.duplicate_prob
         << ", \"reorder_jitter_ms\": " << row.plan.reorder_jitter_ms
         << ", \"losses\": " << r.losses
         << ", \"recoveries\": " << r.recoveries
         << ", \"abandoned\": " << r.abandoned
         << ", \"abandoned_sessions\": " << r.abandoned_sessions
         << ", \"unreachable_clients\": " << r.unreachable_clients
         << ", \"reachable_losses\": " << r.reachable_losses
         << ", \"reachable_recoveries\": " << r.reachable_recoveries
         << ", \"residual_unrecovered_reachable\": " << r.residual_reachable
         << ", \"recovered_fraction_reachable\": " << recovered_fraction
         << ", \"chaos_link_drops\": " << r.chaos_link_drops
         << ", \"duplicates_created\": " << r.duplicates_created
         << ", \"duplicate_requests_suppressed\": "
         << r.duplicate_requests_suppressed
         << ", \"duplicate_sessions\": " << r.duplicate_sessions
         << ", \"retries\": " << r.retries
         << ", \"timeouts\": " << r.timeouts
         << ", \"blacklist_events\": " << r.blacklist_events
         << ", \"failovers\": " << r.failovers
         << ", \"source_fallbacks\": " << r.source_fallbacks
         << ", \"plan_audit_violations\": " << r.plan_audit_violations
         << ", \"mean_delay_ms\": " << r.avg_latency_ms
         << ", \"ok\": " << (row.ok ? "true" : "false") << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"ok\": " << (all_ok ? "true" : "false") << "\n";
  json << "}\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
  }
  if (json_stdout) {
    std::cout << json.str();
  } else {
    std::cout << "RP chaos sweep: n=" << config.num_nodes << " (k~"
              << num_clients << "), p=" << config.loss_prob * 100.0 << "%, "
              << config.num_packets << " packets x " << runs
              << " run(s), chaos at " << chaos_time << " ms\n";
    harness::TextTable table({"scenario", "losses", "recovered", "abandoned",
                              "unreach", "resid(reach)", "dups", "dup sess",
                              "audit", "ok"});
    for (const Row& row : rows) {
      const harness::ProtocolResult& r =
          row.result.result(harness::ProtocolKind::kRp);
      table.addRow({row.name, std::to_string(r.losses),
                    std::to_string(r.recoveries), std::to_string(r.abandoned),
                    std::to_string(r.unreachable_clients),
                    std::to_string(r.residual_reachable),
                    std::to_string(r.duplicates_created),
                    std::to_string(r.duplicate_sessions),
                    std::to_string(r.plan_audit_violations),
                    row.ok ? "yes" : "NO"});
    }
    table.print(std::cout);
    if (!out_path.empty()) std::cout << "wrote " << out_path << "\n";
  }
  return all_ok ? 0 : 1;
}

std::vector<std::uint32_t> parseSizes(const std::string& list) {
  std::vector<std::uint32_t> sizes;
  std::stringstream stream(list);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const long long n = std::stoll(token);
    if (n < 3) throw std::invalid_argument("--sizes entries must be >= 3");
    sizes.push_back(static_cast<std::uint32_t>(n));
  }
  if (sizes.empty()) throw std::invalid_argument("--sizes must be non-empty");
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

int cmdScale(const util::Flags& flags) {
  const auto sizes =
      parseSizes(flags.getString("sizes", "3000,30000,300000,2000000"));
  const std::uint64_t shard_flag = flags.getUnsigned("shard", 64);
  if (shard_flag < 1 ||
      shard_flag > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("--shard must be in [1, 4294967295]");
  }
  const auto shard_budget = static_cast<std::uint32_t>(shard_flag);
  const std::uint64_t seed = flags.getUnsigned("seed", 1);
  const auto churn_ops =
      static_cast<std::uint32_t>(flags.getUnsigned("churn-ops", 500));
  const auto threads = static_cast<unsigned>(flags.getUnsigned("threads", 0));
  // Sizes with at most this many clients are cross-checked against the flat
  // planner (O(k^2)) and refereed by the auditor, and their churned plans
  // against a fresh ShardPlanner.
  const auto flat_max =
      static_cast<std::size_t>(flags.getUnsigned("flat-max", 1500));
  const std::string out_path = flags.getString("out", "BENCH_scale.json");
  const bool json_stdout = flags.getBool("json", false);
  if (const int rc = failUnknownFlags(flags)) return rc;

  using Clock = std::chrono::steady_clock;
  struct Row {
    std::uint32_t nodes = 0;
    std::size_t clients = 0;
    std::size_t shards = 0;
    double build_ms = 0.0;
    double churn_mean_us = 0.0;
    double churn_p50_us = 0.0;
    double churn_p99_us = 0.0;
    double churn_max_us = 0.0;
    double single_shard_fraction = 0.0;
    bool audited = false;
    std::size_t audit_violations = 0;
    bool flat_checked = false;
    bool flat_match = false;
    bool churn_match = false;
    bool ok = true;
  };
  std::vector<Row> rows;

  for (const std::uint32_t n : sizes) {
    util::Rng rng(seed);
    const net::Topology topo = net::generateShallowTreeTopology(n, rng);
    const net::Routing routing(topo.graph, topo.tree);
    std::cerr << "scale: n=" << n << " (" << topo.clients.size()
              << " clients) building..." << std::flush;

    core::ShardPlannerOptions options;
    options.planner.num_threads = threads;
    options.max_shard_clients = shard_budget;

    Row row;
    row.nodes = n;
    row.clients = topo.clients.size();

    const auto build_start = Clock::now();
    core::ShardPlanner planner(topo, routing, options);
    row.build_ms = std::chrono::duration<double, std::milli>(
                       Clock::now() - build_start)
                       .count();
    row.shards = planner.partition().numShards();
    std::cerr << " " << row.build_ms << " ms, " << row.shards << " shards"
              << std::flush;

    if (row.clients <= flat_max) {
      // Tree metric: the sharded plans must equal the flat planner exactly.
      core::PlannerOptions flat_options = options.planner;
      flat_options.timeout_ms = planner.timeoutMs();
      const core::RpPlanner flat(topo, routing, flat_options);
      row.flat_checked = true;
      row.flat_match = true;
      for (const net::NodeId u : topo.clients) {
        const core::Strategy& s = planner.strategyFor(u);
        const core::Strategy& f = flat.strategyFor(u);
        if (s.peers != f.peers ||
            s.expected_delay_ms != f.expected_delay_ms) {
          row.flat_match = false;
          break;
        }
      }
      const core::AuditReport report = planner.auditAll();
      row.audited = true;
      row.audit_violations = report.violations.size();
      row.ok = row.flat_match && report.ok();
    }

    // Churn: remove + re-add random clients, timing each operation.
    util::Rng churn_rng(seed * 40503 + 19);
    std::vector<double> lat_us;
    lat_us.reserve(2 * churn_ops);
    std::size_t single = 0;
    for (std::uint32_t op = 0; op < churn_ops; ++op) {
      const net::NodeId v =
          topo.clients[churn_rng.uniformInt(topo.clients.size())];
      auto t0 = Clock::now();
      planner.removeClient(v);
      lat_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      single += planner.lastShardsTouched() == 1 ? 1 : 0;
      t0 = Clock::now();
      planner.addClient(v);
      lat_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      single += planner.lastShardsTouched() == 1 ? 1 : 0;
    }
    if (!lat_us.empty()) {
      std::sort(lat_us.begin(), lat_us.end());
      double total = 0.0;
      for (const double v : lat_us) total += v;
      row.churn_mean_us = total / static_cast<double>(lat_us.size());
      row.churn_p50_us = lat_us[lat_us.size() / 2];
      row.churn_p99_us = lat_us[lat_us.size() * 99 / 100];
      row.churn_max_us = lat_us.back();
      row.single_shard_fraction =
          static_cast<double>(single) / static_cast<double>(lat_us.size());
    }
    if (row.flat_checked) {
      // Churn maintenance must be canonical: the churned plans equal a
      // fresh build on the final membership.
      net::Topology final_topo = topo;
      final_topo.clients = planner.currentClients();
      core::ShardPlannerOptions fresh_options = options;
      fresh_options.planner.timeout_ms = planner.timeoutMs();
      const core::ShardPlanner fresh(final_topo, routing, fresh_options);
      row.churn_match = true;
      for (const net::NodeId u : final_topo.clients) {
        const core::Strategy& s = planner.strategyFor(u);
        const core::Strategy& f = fresh.strategyFor(u);
        if (planner.candidatesFor(u) != fresh.candidatesFor(u) ||
            s.peers != f.peers ||
            s.expected_delay_ms != f.expected_delay_ms) {
          row.churn_match = false;
          break;
        }
      }
      row.ok = row.ok && row.churn_match;
    }
    std::cerr << "; churn p50 " << row.churn_p50_us << " us\n";
    rows.push_back(row);
  }

  bool all_ok = true;
  std::ostringstream json;
  json.precision(10);
  json << "{\n";
  json << "  \"bench\": \"scale\",\n";
  harness::writeBenchEnvelope(json);
  json << "  \"planner\": \"ShardPlanner\",\n";
  json << "  \"shard_budget\": " << shard_budget << ",\n";
  json << "  \"seed\": " << seed << ",\n";
  json << "  \"churn_ops\": " << churn_ops << ",\n";
  json << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    all_ok &= r.ok;
    json << "    {\"nodes\": " << r.nodes << ", \"clients\": " << r.clients
         << ", \"shards\": " << r.shards
         << ", \"build_ms\": " << r.build_ms
         << ", \"build_us_per_client\": "
         << (r.clients ? 1000.0 * r.build_ms / static_cast<double>(r.clients)
                       : 0.0)
         << ", \"churn_mean_us\": " << r.churn_mean_us
         << ", \"churn_p50_us\": " << r.churn_p50_us
         << ", \"churn_p99_us\": " << r.churn_p99_us
         << ", \"churn_max_us\": " << r.churn_max_us
         << ", \"single_shard_fraction\": " << r.single_shard_fraction
         << ", \"audited\": " << (r.audited ? "true" : "false")
         << ", \"audit_violations\": " << r.audit_violations
         << ", \"flat_checked\": " << (r.flat_checked ? "true" : "false")
         << ", \"flat_match\": " << (r.flat_match ? "true" : "false")
         << ", \"churn_match\": " << (r.churn_match ? "true" : "false")
         << ", \"ok\": " << (r.ok ? "true" : "false") << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"ok\": " << (all_ok ? "true" : "false") << "\n";
  json << "}\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
  }
  if (json_stdout) {
    std::cout << json.str();
  } else {
    std::cout << "ShardPlanner scale sweep: K=" << shard_budget << ", "
              << churn_ops << " churn cycles per size\n";
    harness::TextTable table({"nodes", "clients", "shards", "build (ms)",
                              "churn p50 (us)", "churn p99 (us)", "1-shard %",
                              "audit", "flat", "churn", "ok"});
    for (const Row& r : rows) {
      table.addRow({std::to_string(r.nodes), std::to_string(r.clients),
                    std::to_string(r.shards),
                    harness::TextTable::num(r.build_ms),
                    harness::TextTable::num(r.churn_p50_us),
                    harness::TextTable::num(r.churn_p99_us),
                    harness::TextTable::num(100.0 * r.single_shard_fraction, 1),
                    r.audited ? std::to_string(r.audit_violations) : "-",
                    r.flat_checked ? (r.flat_match ? "exact" : "DIFF") : "-",
                    r.flat_checked ? (r.churn_match ? "exact" : "DIFF") : "-",
                    r.ok ? "yes" : "NO"});
    }
    table.print(std::cout);
    if (!out_path.empty()) std::cout << "wrote " << out_path << "\n";
  }
  return all_ok ? 0 : 1;
}

int cmdCoded(const util::Flags& flags) {
  harness::ExperimentConfig config;
  config.num_nodes =
      static_cast<std::uint32_t>(flags.getUnsigned("nodes", 60));
  config.num_packets =
      static_cast<std::uint32_t>(flags.getUnsigned("packets", 64));
  config.seed = flags.getUnsigned("seed", config.seed);
  config.mean_burst_packets = flags.getDouble("burst", 4.0);
  const auto runs = static_cast<std::uint32_t>(flags.getUnsigned("runs", 3));
  const std::vector<double> losses =
      parseRates(flags.getString("losses", "2,5,10,15,20,30"));
  const auto threads = static_cast<unsigned>(flags.getUnsigned("threads", 0));
  const std::string out_path = flags.getString("out", "BENCH_coded.json");
  const bool json_stdout = flags.getBool("json", false);
  if (const int rc = failUnknownFlags(flags)) return rc;

  const harness::ProtocolKind kinds[] = {harness::ProtocolKind::kRp,
                                         harness::ProtocolKind::kCodedRlc};
  struct Row {
    double loss_pct = 0.0;
    harness::ExperimentResult result;
  };
  std::vector<Row> rows;
  double num_clients = 0.0;
  for (const double pct : losses) {
    harness::ExperimentConfig swept = config;
    swept.loss_prob = pct / 100.0;
    rows.push_back({pct, harness::runAveragedExperimentParallel(
                             swept, runs, kinds, threads)});
    num_clients = rows.back().result.num_clients;
  }

  // Crossover: the lowest swept rate from which coding's repair multicasts
  // undercut RP's source REQUESTs.  RP wins quiet networks (peers absorb
  // most recovery, the source is barely touched); one coded wave amortizing
  // a whole burst's union of losses wins loud ones.
  double crossover_pct = -1.0;
  for (const Row& row : rows) {
    const auto& rp = row.result.result(harness::ProtocolKind::kRp);
    const auto& coded = row.result.result(harness::ProtocolKind::kCodedRlc);
    if (rp.source_requests > 0 &&
        coded.source_repair_multicasts < rp.source_requests) {
      crossover_pct = row.loss_pct;
      break;
    }
  }

  bool all_recovered = true;
  for (const Row& row : rows) {
    const auto& rp = row.result.result(harness::ProtocolKind::kRp);
    const auto& coded = row.result.result(harness::ProtocolKind::kCodedRlc);
    all_recovered &= rp.fully_recovered && coded.fully_recovered &&
                     rp.residual_reachable == 0 &&
                     coded.residual_reachable == 0;
  }
  const bool ok = all_recovered && crossover_pct >= 0.0;

  std::ostringstream json;
  json.precision(10);
  json << "{\n";
  json << "  \"bench\": \"coded\",\n";
  harness::writeBenchEnvelope(json);
  json << "  \"ok\": " << (ok ? "true" : "false") << ",\n";
  json << "  \"protocols\": [\"RP\", \"CODED\"],\n";
  json << "  \"nodes\": " << config.num_nodes << ",\n";
  json << "  \"mean_clients\": " << num_clients << ",\n";
  json << "  \"packets\": " << config.num_packets << ",\n";
  json << "  \"runs\": " << runs << ",\n";
  json << "  \"mean_burst_packets\": " << config.mean_burst_packets << ",\n";
  json << "  \"window_size\": " << config.coded.window_size << ",\n";
  json << "  \"crossover_loss_pct\": " << crossover_pct << ",\n";
  json << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& rp = rows[i].result.result(harness::ProtocolKind::kRp);
    const auto& coded =
        rows[i].result.result(harness::ProtocolKind::kCodedRlc);
    json << "    {\"loss_pct\": " << rows[i].loss_pct
         << ", \"losses\": " << coded.losses
         << ", \"rp_source_tx\": " << rp.source_requests
         << ", \"coded_source_tx\": " << coded.source_repair_multicasts
         << ", \"coded_nacks\": " << coded.fec_nacks_sent
         << ", \"rp_latency_ms\": " << rp.avg_latency_ms
         << ", \"coded_latency_ms\": " << coded.avg_latency_ms
         << ", \"rp_bandwidth_hops\": " << rp.avg_bandwidth_hops
         << ", \"coded_bandwidth_hops\": " << coded.avg_bandwidth_hops
         << ", \"rp_residual\": " << rp.residual_reachable
         << ", \"coded_residual\": " << coded.residual_reachable << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n";
  json << "}\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
  }
  if (json_stdout) {
    std::cout << json.str();
  } else {
    std::cout << "coded crossover sweep: n=" << config.num_nodes << " (k~"
              << num_clients << "), " << config.num_packets << " packets x "
              << runs << " run(s), burst " << config.mean_burst_packets
              << "\n";
    harness::TextTable table({"loss %", "losses", "RP src tx", "coded src tx",
                              "coded NACKs", "RP lat (ms)", "coded lat (ms)"});
    for (const Row& row : rows) {
      const auto& rp = row.result.result(harness::ProtocolKind::kRp);
      const auto& coded = row.result.result(harness::ProtocolKind::kCodedRlc);
      table.addRow({harness::TextTable::num(row.loss_pct, 1),
                    std::to_string(coded.losses),
                    std::to_string(rp.source_requests),
                    std::to_string(coded.source_repair_multicasts),
                    std::to_string(coded.fec_nacks_sent),
                    harness::TextTable::num(rp.avg_latency_ms),
                    harness::TextTable::num(coded.avg_latency_ms)});
    }
    table.print(std::cout);
    if (crossover_pct >= 0.0) {
      std::cout << "crossover: coding beats RP's source load from "
                << harness::TextTable::num(crossover_pct, 1) << "% loss\n";
    } else {
      std::cout << "crossover: none in the swept range\n";
    }
    if (!out_path.empty()) std::cout << "wrote " << out_path << "\n";
  }
  return ok ? 0 : 1;
}

std::vector<unsigned> parseWorkers(const std::string& list) {
  std::vector<unsigned> workers;
  std::stringstream stream(list);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const long long w = std::stoll(token);
    if (w < 1) throw std::invalid_argument("--workers entries must be >= 1");
    workers.push_back(static_cast<unsigned>(w));
  }
  if (workers.empty()) {
    throw std::invalid_argument("--workers must be non-empty");
  }
  return workers;
}

/// Bit-identity across worker counts: every reported value equal (pool
/// lanes excluded — the host clamps those to its core count).
bool parsimReportsIdentical(const harness::ParsimReport& a,
                            const harness::ParsimReport& b) {
  if (a.regions != b.regions || a.epochs != b.epochs ||
      a.handoffs != b.handoffs || a.events != b.events ||
      a.region_runs != b.region_runs ||
      a.lookahead_ms != b.lookahead_ms || a.retries != b.retries ||
      a.timeouts != b.timeouts || a.abandoned != b.abandoned ||
      a.abandoned_sessions != b.abandoned_sessions ||
      a.chaos_link_drops != b.chaos_link_drops ||
      a.duplicates_created != b.duplicates_created) {
    return false;
  }
  const harness::TransferReport& ta = a.transfer;
  const harness::TransferReport& tb = b.transfer;
  if (ta.complete != tb.complete || ta.losses != tb.losses ||
      ta.recoveries != tb.recoveries || ta.data_hops != tb.data_hops ||
      ta.recovery_hops != tb.recovery_hops ||
      ta.duration_ms != tb.duration_ms ||
      ta.avg_recovery_latency_ms != tb.avg_recovery_latency_ms ||
      ta.completions.size() != tb.completions.size()) {
    return false;
  }
  for (std::size_t i = 0; i < ta.completions.size(); ++i) {
    if (ta.completions[i].client != tb.completions[i].client ||
        ta.completions[i].completed_at_ms !=
            tb.completions[i].completed_at_ms ||
        ta.completions[i].losses != tb.completions[i].losses) {
      return false;
    }
  }
  return true;
}

int cmdParsim(const util::Flags& flags) {
  const auto nodes =
      static_cast<std::uint32_t>(flags.getUnsigned("nodes", 200));
  const auto packets =
      static_cast<std::uint32_t>(flags.getUnsigned("packets", 200));
  const double loss = flags.getDouble("loss", 10.0) / 100.0;
  const std::uint64_t seed = flags.getUnsigned("seed", 1);
  const auto regions =
      static_cast<std::uint32_t>(flags.getUnsigned("regions", 8));
  const std::vector<unsigned> worker_counts =
      parseWorkers(flags.getString("workers", "1,2,4"));
  const auto kind = parseOneProtocol(flags.getString("protocol", "rp"));
  const bool lossy_recovery = flags.getBool("lossy-recovery", true);
  const auto repeats =
      static_cast<unsigned>(flags.getUnsigned("repeats", 3));
  const std::string out_path = flags.getString("out", "BENCH_parsim.json");
  const bool json_stdout = flags.getBool("json", false);
  if (const int rc = failUnknownFlags(flags)) return rc;
  if (repeats == 0) throw std::invalid_argument("--repeats must be >= 1");

  util::Rng rng(seed);
  net::TopologyConfig topo_config;
  topo_config.num_nodes = nodes;
  const net::Topology topo = net::generateTopology(topo_config, rng);

  harness::TransferConfig config;
  config.protocol = kind;
  config.num_packets = packets;
  config.loss_prob = loss;
  config.lossy_recovery = lossy_recovery;
  config.seed = seed;

  using Clock = std::chrono::steady_clock;
  const auto wallOf = [](const auto& fn) {
    const auto start = Clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };

  // Worker sweep over the FIXED canonical region set: the worker count only
  // changes which thread advances a region, so every report must be
  // bit-identical to the 1-worker run (DESIGN.md §14).
  struct Row {
    unsigned workers = 0;
    harness::ParsimReport report;
    double wall_ms = 0.0;
    bool identical = true;
  };
  std::vector<Row> rows;
  for (const unsigned w : worker_counts) {
    harness::ParsimConfig parallel;
    parallel.target_regions = regions;
    parallel.workers = w;
    Row row;
    row.workers = w;
    for (unsigned r = 0; r < repeats; ++r) {
      harness::ParsimReport report;
      const double ms = wallOf([&] {
        report = harness::runParallelTransfer(topo, config, parallel);
      });
      row.wall_ms = r == 0 ? ms : std::min(row.wall_ms, ms);
      if (r == 0) {
        row.report = std::move(report);
      } else if (!parsimReportsIdentical(row.report, report)) {
        row.identical = false;  // not even self-consistent across repeats
      }
    }
    if (!rows.empty()) {
      row.identical = row.identical &&
                      parsimReportsIdentical(rows.front().report, row.report);
    }
    rows.push_back(std::move(row));
  }

  bool all_identical = true;
  for (const Row& row : rows) all_identical &= row.identical;
  const Row& base = rows.front();
  const bool ok = all_identical && base.report.transfer.complete;
  // Per-barrier work: events fired and regions that had any to fire.  Few
  // active regions per epoch leave little for a second lane to take.
  const auto perEpoch = [&base](std::uint64_t count) {
    return base.report.epochs == 0
               ? 0.0
               : static_cast<double>(count) /
                     static_cast<double>(base.report.epochs);
  };
  const double events_per_epoch = perEpoch(base.report.events);
  const double active_regions_per_epoch = perEpoch(base.report.region_runs);

  std::ostringstream json;
  json.precision(10);
  json << "{\n";
  json << "  \"bench\": \"parsim\",\n";
  harness::writeBenchEnvelope(json);
  json << "  \"protocol\": \"" << toString(kind) << "\",\n";
  json << "  \"nodes\": " << nodes << ",\n";
  json << "  \"clients\": " << topo.clients.size() << ",\n";
  json << "  \"packets\": " << packets << ",\n";
  json << "  \"loss_prob\": " << loss << ",\n";
  json << "  \"lossy_recovery\": " << (lossy_recovery ? "true" : "false")
       << ",\n";
  json << "  \"seed\": " << seed << ",\n";
  json << "  \"repeats\": " << repeats << ",\n";
  json << "  \"target_regions\": " << regions << ",\n";
  json << "  \"regions\": " << base.report.regions << ",\n";
  json << "  \"lookahead_ms\": " << base.report.lookahead_ms << ",\n";
  json << "  \"epochs\": " << base.report.epochs << ",\n";
  json << "  \"handoffs\": " << base.report.handoffs << ",\n";
  json << "  \"events\": " << base.report.events << ",\n";
  json << "  \"region_runs\": " << base.report.region_runs << ",\n";
  json << "  \"events_per_epoch\": " << events_per_epoch << ",\n";
  json << "  \"active_regions_per_epoch\": " << active_regions_per_epoch
       << ",\n";
  json << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const double eps =
        row.wall_ms > 0.0
            ? static_cast<double>(row.report.events) / (row.wall_ms / 1000.0)
            : 0.0;
    const double speedup =
        row.wall_ms > 0.0 ? base.wall_ms / row.wall_ms : 0.0;
    json << "    {\"workers\": " << row.workers
         << ", \"lanes\": " << row.report.lanes
         << ", \"wall_ms\": " << row.wall_ms
         << ", \"events_per_sec\": " << eps
         << ", \"speedup_vs_one_worker\": " << speedup
         << ", \"identical\": " << (row.identical ? "true" : "false") << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"identical_across_workers\": "
       << (all_identical ? "true" : "false") << ",\n";
  json << "  \"ok\": " << (ok ? "true" : "false") << "\n";
  json << "}\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
  }
  if (json_stdout) {
    std::cout << json.str();
  } else {
    std::cout << toString(kind) << " parsim sweep: n=" << nodes << " ("
              << topo.clients.size() << " clients), " << packets
              << " packets at p=" << loss * 100.0 << "%, "
              << base.report.regions << " regions (target " << regions
              << "), lookahead "
              << harness::TextTable::num(base.report.lookahead_ms)
              << " ms, " << base.report.epochs << " epochs ("
              << harness::TextTable::num(events_per_epoch) << " events, "
              << harness::TextTable::num(active_regions_per_epoch)
              << " active regions each), " << base.report.handoffs
              << " handoffs\n";
    harness::TextTable table({"workers", "lanes", "wall (ms)", "events/sec",
                              "speedup", "identical"});
    for (const Row& row : rows) {
      const double eps =
          row.wall_ms > 0.0
              ? static_cast<double>(row.report.events) / (row.wall_ms / 1000.0)
              : 0.0;
      table.addRow({std::to_string(row.workers),
                    std::to_string(row.report.lanes),
                    harness::TextTable::num(row.wall_ms),
                    harness::TextTable::num(eps),
                    harness::TextTable::num(
                        row.wall_ms > 0.0 ? base.wall_ms / row.wall_ms : 0.0,
                        2),
                    row.identical ? "yes" : "NO"});
    }
    table.print(std::cout);
    if (!out_path.empty()) std::cout << "wrote " << out_path << "\n";
  }
  return ok ? 0 : 1;
}

int cmdConfig(const util::Flags& flags) {
  const std::string out_path = flags.getString("out", "");
  if (const int rc = failUnknownFlags(flags)) return rc;
  const harness::ExperimentConfig config;
  if (out_path.empty()) {
    harness::writeConfig(std::cout, config);
  } else {
    std::ofstream out(out_path);
    harness::writeConfig(out, config);
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Flags flags(argc, argv);
    if (flags.positional().empty()) return usage();
    const std::string& command = flags.positional().front();
    if (command == "gen") return cmdGen(flags);
    if (command == "plan") return cmdPlan(flags);
    if (command == "run") return cmdRun(flags);
    if (command == "transfer") return cmdTransfer(flags);
    if (command == "audit") return cmdAudit(flags);
    if (command == "resilience") return cmdResilience(flags);
    if (command == "chaos") return cmdChaos(flags);
    if (command == "scale") return cmdScale(flags);
    if (command == "coded") return cmdCoded(flags);
    if (command == "parsim") return cmdParsim(flags);
    if (command == "config") return cmdConfig(flags);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
