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
//                 [--seed S] [--runs R] [--protocols srm,rma,rp,src,fec,coded]
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
//       Chaos sweep (RP protocol): the fixed grid of link-fault scenarios in
//       harness/chaos_grid.hpp — group partition (healed and permanent) x
//       link flaps x per-link duplication/reorder jitter — each run with the
//       per-session liveness watchdog and failover-plan auditing on.  Gates
//       per row: zero unrecovered losses among source-reachable clients,
//       recovered fraction 1 for them, no duplicate recovery sessions at
//       <= 20% duplication, and zero failover-plan audit violations.  Writes
//       the sweep as JSON to --out; --json prints it to stdout (CI smoke);
//       exit 1 when any gate fails.
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
//       replayed at each worker count over the FIXED canonical region set,
//       plus the serial transfer.  Every send takes the closed-form
//       transport; a send crossing a region boundary is handed over with
//       its computed arrival and resumed there by one event.  Gates (exit 1
//       on failure): every worker count's report bit-identical to the
//       1-worker run, the run equal to the serial transfer (matches_serial),
//       and the transfer complete.
//       Speedups are recorded, not gated — CI gates them only on multi-core
//       runners (the JSON records hardware_concurrency honestly).
//
//   rmrn_cli config [--out file]
//       Print (or write) a complete default experiment config to edit.
#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/auditor.hpp"
#include "core/planner.hpp"
#include "core/shard_planner.hpp"
#include "harness/bench_json.hpp"
#include "harness/chaos_grid.hpp"
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

/// An unsigned flag that narrows to 32 bits; larger values are rejected.
std::uint32_t getU32(const util::Flags& flags, const std::string& name,
                     std::uint32_t fallback) {
  return static_cast<std::uint32_t>(flags.getUnsigned(
      name, fallback, std::numeric_limits<std::uint32_t>::max()));
}

/// Writes `report` to `out_path` (when set); with --json prints it to
/// stdout, otherwise runs `print_text` (the command's table) and notes the
/// file.
template <typename PrintText>
void publish(const harness::BenchReport& report, const std::string& out_path,
             bool json_stdout, PrintText print_text) {
  const std::string text = report.str();
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << text;
  }
  if (json_stdout) {
    std::cout << text;
    return;
  }
  print_text();
  if (!out_path.empty()) std::cout << "wrote " << out_path << "\n";
}

/// The experiment flags run, resilience, chaos and coded share.  A command
/// sets its defaults, then read() applies --nodes, --packets, --seed, --runs
/// and --threads, plus --loss, --burst, --out and --json where it takes them.
struct SweepArgs {
  harness::ExperimentConfig config;
  std::uint32_t runs = 1;
  unsigned threads = 0;
  bool loss_flag = true;    // takes --loss P (percent)
  bool burst_flag = false;  // takes --burst B
  std::string out;          // --out default; empty = no --out / --json
  bool json_stdout = false;

  void read(const util::Flags& flags) {
    config.num_nodes = getU32(flags, "nodes", config.num_nodes);
    if (loss_flag && flags.has("loss")) {
      config.loss_prob = flags.getDouble("loss", 5.0) / 100.0;
    }
    config.num_packets = getU32(flags, "packets", config.num_packets);
    config.seed = flags.getUnsigned("seed", config.seed);
    if (burst_flag) {
      config.mean_burst_packets =
          flags.getDouble("burst", config.mean_burst_packets);
    }
    runs = getU32(flags, "runs", runs);
    threads = getU32(flags, "threads", 0);
    if (!out.empty()) {
      out = flags.getString("out", out);
      json_stdout = flags.getBool("json", false);
    }
  }
};

int cmdGen(const util::Flags& flags) {
  const std::uint32_t nodes = getU32(flags, "nodes", 100);
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
  const unsigned threads = getU32(flags, "threads", 0);
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
  // Planning only queries client->anything, so agent rows replace the
  // all-pairs build.
  const net::Routing routing(topo.graph, topo.agents(), threads);
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
  const std::uint32_t nodes = getU32(flags, "nodes", 100);
  const std::uint64_t seed = flags.getUnsigned("seed", 1);
  const double factor = flags.getDouble("timeout-factor", 1.5);
  const unsigned threads = getU32(flags, "threads", 0);
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

  const net::Routing routing(topo.graph, topo.agents(), threads);
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

/// Comma-separated scheme names: each is the lowercase toString() of one of
/// the six kinds (srm, rma, rp, src, fec, coded).
std::vector<harness::ProtocolKind> parseProtocols(const std::string& list) {
  constexpr int kNumKinds =
      static_cast<int>(harness::ProtocolKind::kCodedRlc) + 1;
  const auto name = [](int k) {
    std::string lower(toString(static_cast<harness::ProtocolKind>(k)));
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return lower;
  };
  std::vector<harness::ProtocolKind> kinds;
  std::stringstream stream(list);
  std::string token;
  while (std::getline(stream, token, ',')) {
    int k = 0;
    while (k < kNumKinds && name(k) != token) ++k;
    if (k == kNumKinds) {
      throw std::invalid_argument("unknown protocol '" + token + "'");
    }
    kinds.push_back(static_cast<harness::ProtocolKind>(k));
  }
  return kinds;
}

int cmdRun(const util::Flags& flags) {
  SweepArgs args;
  args.burst_flag = true;
  const std::string config_path = flags.getString("config", "");
  if (!config_path.empty()) {
    std::ifstream in(config_path);
    if (!in) {
      std::cerr << "run: cannot open " << config_path << "\n";
      return 1;
    }
    args.config = harness::readConfig(in);
  }
  args.read(flags);
  harness::ExperimentConfig& config = args.config;
  config.lossy_recovery =
      flags.getBool("lossy-recovery", config.lossy_recovery);
  const auto kinds =
      parseProtocols(flags.getString("protocols", "srm,rma,rp"));
  const std::string csv_path = flags.getString("csv", "");
  if (const int rc = failUnknownFlags(flags)) return rc;

  const auto wall_start = std::chrono::steady_clock::now();
  const harness::ExperimentResult result =
      harness::runAveragedExperiment(config, args.runs, kinds, args.threads);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  std::cout << "n=" << config.num_nodes << " (k~" << result.num_clients
            << "), p=" << config.loss_prob * 100.0 << "%, "
            << config.num_packets << " packets x " << args.runs
            << " run(s)\n";
  harness::TextTable table({"protocol", "losses", "recovered",
                            "avg latency (ms)", "avg bandwidth (hops)",
                            "events"});
  std::uint64_t total_events = 0;
  std::uint64_t absorbed = 0;
  std::array<std::uint64_t, sim::kNumEventKinds> events_by_kind{};
  for (const harness::ProtocolResult& r : result.protocols) {
    total_events += r.events_processed;
    absorbed += r.absorbed_arrivals;
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
  // One line per arm: the order-free digest of every terminal (client, seq)
  // record, so two runs can be compared beyond the table's aggregates.
  for (const harness::ProtocolResult& r : result.protocols) {
    char digest[19];
    std::snprintf(digest, sizeof(digest), "0x%016llx",
                  static_cast<unsigned long long>(r.recovery_digest));
    std::cout << "digest " << toString(r.kind) << ": " << digest << "\n";
  }
  // events/sec is sim-only: topology/routing/planner construction is setup,
  // not engine throughput.  Sim and setup are sums over repetitions, so
  // with --threads > 1 they exceed the elapsed wall.
  // Flood arrivals an SRM arm absorbed were delivered without an event.
  std::cout << "engine: " << total_events << " events (";
  for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
    const auto kind = static_cast<sim::EventKind>(k);
    std::cout << (k == 0 ? "" : ", ") << sim::toString(kind) << ' '
              << events_by_kind[k];
    if (kind == sim::EventKind::kFloodCursor) {
      std::cout << " + " << absorbed << " absorbed";
    }
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
  const std::uint32_t nodes = getU32(flags, "nodes", 100);
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

int cmdResilience(const util::Flags& flags) {
  SweepArgs args;
  args.runs = 3;
  args.out = "BENCH_resilience.json";
  args.read(flags);
  const harness::ExperimentConfig& config = args.config;
  std::vector<double> rates = flags.getList("rates", "0,5,10,20", 0.0, 100.0);
  // Crash victims mid-stream by default so live recovery sessions are cut.
  const double default_fault_time =
      0.4 * config.num_packets * config.data_interval_ms;
  const double fault_time = flags.getDouble("fault-time", default_fault_time);
  const std::uint64_t fault_seed = flags.getUnsigned("fault-seed", config.seed);
  if (const int rc = failUnknownFlags(flags)) return rc;

  // Rate 0 is the no-fault baseline every other rate is compared against.
  if (rates.front() != 0.0) rates.insert(rates.begin(), 0.0);

  const harness::ProtocolKind kinds[] = {harness::ProtocolKind::kRp};
  std::vector<harness::ProtocolResult> rows;
  std::vector<std::uint32_t> clients_per_run;
  double num_clients = 0.0;
  for (const double rate : rates) {
    harness::ExperimentConfig swept = config;
    swept.faults.crash_fraction = rate / 100.0;
    swept.faults.at_ms = fault_time;
    swept.faults.seed = fault_seed;
    const harness::ExperimentResult result =
        harness::runAveragedExperiment(swept, args.runs, kinds, args.threads);
    rows.push_back(result.result(harness::ProtocolKind::kRp));
    // Per-run client counts are integers (one per repetition, seed order);
    // mean_clients is their average.  Identical for every rate of the sweep
    // (same seeds -> same topologies), so they are reported once.
    clients_per_run = result.clients_per_run;
    num_clients = result.num_clients;
  }

  const double baseline_delay = rows.front().avg_latency_ms;
  const auto vsBaseline = [baseline_delay](const harness::ProtocolResult& r) {
    return baseline_delay > 0.0 ? r.avg_latency_ms / baseline_delay : 1.0;
  };

  harness::BenchReport report("bench", "resilience");
  report.add("protocol", "RP")
      .add("nodes", config.num_nodes)
      .add("mean_clients", num_clients)
      .add("clients_per_run", clients_per_run)
      .add("loss_prob", config.loss_prob)
      .add("packets", config.num_packets)
      .add("runs", args.runs)
      .add("fault_time_ms", fault_time);
  std::vector<harness::JsonObject> sweep;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const harness::ProtocolResult& r = rows[i];
    const std::size_t survivors_losses = r.losses - r.abandoned;
    sweep.push_back(
        harness::JsonObject()
            .add("crash_rate", rates[i])
            .add("losses", r.losses)
            .add("recoveries", r.recoveries)
            .add("abandoned", r.abandoned)
            .add("residual_unrecovered", r.residual)
            .add("recovered_fraction",
                 survivors_losses == 0
                     ? 1.0
                     : static_cast<double>(r.recoveries) /
                           static_cast<double>(survivors_losses))
            .add("mean_delay_ms", r.avg_latency_ms)
            .add("delay_vs_baseline", vsBaseline(r))
            .add("retries", r.retries)
            .add("timeouts", r.timeouts)
            .add("blacklist_events", r.blacklist_events)
            .add("failovers", r.failovers)
            .add("source_fallbacks", r.source_fallbacks));
  }
  report.add("sweep", sweep);

  publish(report, args.out, args.json_stdout, [&] {
    std::cout << "RP resilience sweep: n=" << config.num_nodes << " (k~"
              << num_clients << "), p=" << config.loss_prob * 100.0 << "%, "
              << config.num_packets << " packets x " << args.runs
              << " run(s), faults at " << fault_time << " ms\n";
    harness::TextTable table({"crash %", "losses", "recovered", "abandoned",
                              "residual", "delay (ms)", "vs base", "retries",
                              "blacklists", "failovers"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const harness::ProtocolResult& r = rows[i];
      table.addRow({harness::TextTable::num(rates[i], 1),
                    std::to_string(r.losses), std::to_string(r.recoveries),
                    std::to_string(r.abandoned), std::to_string(r.residual),
                    harness::TextTable::num(r.avg_latency_ms),
                    harness::TextTable::num(vsBaseline(r), 2),
                    std::to_string(r.retries),
                    std::to_string(r.blacklist_events),
                    std::to_string(r.failovers)});
    }
    table.print(std::cout);
  });

  // The sweep passes when every surviving client recovered every loss.
  bool ok = true;
  for (const harness::ProtocolResult& r : rows) ok &= r.residual == 0;
  return ok ? 0 : 1;
}

int cmdChaos(const util::Flags& flags) {
  SweepArgs args;
  args.runs = 2;
  args.out = "BENCH_chaos.json";
  args.read(flags);
  if (const int rc = failUnknownFlags(flags)) return rc;
  const harness::ExperimentConfig& config = args.config;

  struct Row {
    std::string name;
    sim::FaultPlan plan;
    harness::ProtocolResult result;
    bool ok = false;
  };
  const harness::ProtocolKind kinds[] = {harness::ProtocolKind::kRp};
  std::vector<Row> rows;
  std::vector<std::uint32_t> clients_per_run;
  double num_clients = 0.0;
  for (const harness::ChaosCell& cell : harness::kChaosGrid) {
    const harness::ExperimentConfig swept = harness::chaosConfig(config, cell);
    const harness::ExperimentResult result = harness::runAveragedExperiment(
        swept, args.runs, kinds, args.threads);
    if (rows.empty()) {
      clients_per_run = result.clients_per_run;
      num_clients = result.num_clients;
    }
    const harness::ProtocolResult& r =
        result.result(harness::ProtocolKind::kRp);
    // Gates: every source-reachable client recovered everything, no
    // duplicate recovery sessions at moderate duplication, and every
    // adopted failover plan passed the independent audit.
    const bool ok = r.residual_reachable == 0 &&
                    r.reachable_losses == r.reachable_recoveries &&
                    r.plan_audit_violations == 0 &&
                    (cell.duplicate_prob > 0.2 || r.duplicate_sessions == 0);
    rows.push_back({harness::chaosCellName(cell), swept.faults, r, ok});
  }
  const double chaos_time = rows.front().plan.at_ms;

  harness::BenchReport report("bench", "chaos");
  report.add("protocol", "RP")
      .add("nodes", config.num_nodes)
      .add("mean_clients", num_clients)
      .add("clients_per_run", clients_per_run)
      .add("loss_prob", config.loss_prob)
      .add("packets", config.num_packets)
      .add("runs", args.runs)
      .add("chaos_time_ms", chaos_time);
  std::vector<harness::JsonObject> sweep;
  bool all_ok = true;
  for (const Row& row : rows) {
    const harness::ProtocolResult& r = row.result;
    all_ok &= row.ok;
    sweep.push_back(
        harness::JsonObject()
            .add("name", row.name)
            .add("partition_fraction", row.plan.partition_fraction)
            .add("partition_heal_ms", row.plan.partition_heal_ms)
            .add("link_flap_fraction", row.plan.link_flap_fraction)
            .add("duplicate_prob", row.plan.duplicate_prob)
            .add("reorder_jitter_ms", row.plan.reorder_jitter_ms)
            .add("losses", r.losses)
            .add("recoveries", r.recoveries)
            .add("abandoned", r.abandoned)
            .add("abandoned_sessions", r.abandoned_sessions)
            .add("unreachable_clients", r.unreachable_clients)
            .add("reachable_losses", r.reachable_losses)
            .add("reachable_recoveries", r.reachable_recoveries)
            .add("residual_unrecovered_reachable", r.residual_reachable)
            .add("recovered_fraction_reachable",
                 r.reachable_losses == 0
                     ? 1.0
                     : static_cast<double>(r.reachable_recoveries) /
                           static_cast<double>(r.reachable_losses))
            .add("chaos_link_drops", r.chaos_link_drops)
            .add("duplicates_created", r.duplicates_created)
            .add("duplicate_requests_suppressed",
                 r.duplicate_requests_suppressed)
            .add("duplicate_sessions", r.duplicate_sessions)
            .add("retries", r.retries)
            .add("timeouts", r.timeouts)
            .add("blacklist_events", r.blacklist_events)
            .add("failovers", r.failovers)
            .add("source_fallbacks", r.source_fallbacks)
            .add("plan_audit_violations", r.plan_audit_violations)
            .add("mean_delay_ms", r.avg_latency_ms)
            .add("ok", row.ok));
  }
  report.add("sweep", sweep).add("ok", all_ok);

  publish(report, args.out, args.json_stdout, [&] {
    std::cout << "RP chaos sweep: n=" << config.num_nodes << " (k~"
              << num_clients << "), p=" << config.loss_prob * 100.0 << "%, "
              << config.num_packets << " packets x " << args.runs
              << " run(s), chaos at " << chaos_time << " ms\n";
    harness::TextTable table({"scenario", "losses", "recovered", "abandoned",
                              "unreach", "resid(reach)", "dups", "dup sess",
                              "audit", "ok"});
    for (const Row& row : rows) {
      const harness::ProtocolResult& r = row.result;
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
  });
  return all_ok ? 0 : 1;
}

int cmdScale(const util::Flags& flags) {
  const auto sizes = flags.getList<std::uint32_t>(
      "sizes", "3000,30000,300000,2000000", 3,
      std::numeric_limits<std::uint32_t>::max());
  const std::uint32_t shard_budget = getU32(flags, "shard", 64);
  if (shard_budget < 1) throw std::invalid_argument("--shard must be >= 1");
  const std::uint64_t seed = flags.getUnsigned("seed", 1);
  const std::uint32_t churn_ops = getU32(flags, "churn-ops", 500);
  const unsigned threads = getU32(flags, "threads", 0);
  // Sizes with at most this many clients are cross-checked against the flat
  // planner (O(k^2)) and refereed by the auditor, and their churned plans
  // against a fresh ShardPlanner.
  const std::uint64_t flat_max = flags.getUnsigned("flat-max", 1500);
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


  harness::BenchReport report("bench", "scale");
  report.add("planner", "ShardPlanner")
      .add("shard_budget", shard_budget)
      .add("seed", seed)
      .add("churn_ops", churn_ops);
  std::vector<harness::JsonObject> sweep;
  bool all_ok = true;
  for (const Row& r : rows) {
    all_ok &= r.ok;
    sweep.push_back(
        harness::JsonObject()
            .add("nodes", r.nodes)
            .add("clients", r.clients)
            .add("shards", r.shards)
            .add("build_ms", r.build_ms)
            .add("build_us_per_client",
                 r.clients ? 1000.0 * r.build_ms /
                                 static_cast<double>(r.clients)
                           : 0.0)
            .add("churn_mean_us", r.churn_mean_us)
            .add("churn_p50_us", r.churn_p50_us)
            .add("churn_p99_us", r.churn_p99_us)
            .add("churn_max_us", r.churn_max_us)
            .add("single_shard_fraction", r.single_shard_fraction)
            .add("audited", r.audited)
            .add("audit_violations", r.audit_violations)
            .add("flat_checked", r.flat_checked)
            .add("flat_match", r.flat_match)
            .add("churn_match", r.churn_match)
            .add("ok", r.ok));
  }
  report.add("sweep", sweep).add("ok", all_ok);

  publish(report, out_path, json_stdout, [&] {
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
  });
  return all_ok ? 0 : 1;
}

int cmdCoded(const util::Flags& flags) {
  SweepArgs args;
  args.config.num_nodes = 60;
  args.config.num_packets = 64;
  args.config.mean_burst_packets = 4.0;
  args.loss_flag = false;
  args.burst_flag = true;
  args.runs = 3;
  args.out = "BENCH_coded.json";
  args.read(flags);
  const harness::ExperimentConfig& config = args.config;
  const std::vector<double> losses =
      flags.getList("losses", "2,5,10,15,20,30", 0.0, 100.0);
  if (const int rc = failUnknownFlags(flags)) return rc;

  const harness::ProtocolKind kinds[] = {harness::ProtocolKind::kRp,
                                         harness::ProtocolKind::kCodedRlc};
  struct Row {
    double loss_pct = 0.0;
    harness::ProtocolResult rp;
    harness::ProtocolResult coded;
  };
  std::vector<Row> rows;
  double num_clients = 0.0;
  for (const double pct : losses) {
    harness::ExperimentConfig swept = config;
    swept.loss_prob = pct / 100.0;
    const harness::ExperimentResult result =
        harness::runAveragedExperiment(swept, args.runs, kinds, args.threads);
    rows.push_back({pct, result.result(harness::ProtocolKind::kRp),
                    result.result(harness::ProtocolKind::kCodedRlc)});
    num_clients = result.num_clients;
  }

  // Crossover: the lowest swept rate from which coding's repair multicasts
  // undercut RP's source REQUESTs.  RP wins quiet networks (peers absorb
  // most recovery, the source is barely touched); one coded wave amortizing
  // a whole burst's union of losses wins loud ones.
  double crossover_pct = -1.0;
  for (const Row& row : rows) {
    if (row.rp.source_requests > 0 &&
        row.coded.source_repair_multicasts < row.rp.source_requests) {
      crossover_pct = row.loss_pct;
      break;
    }
  }

  bool all_recovered = true;
  for (const Row& row : rows) {
    all_recovered &= row.rp.fully_recovered && row.coded.fully_recovered &&
                     row.rp.residual_reachable == 0 &&
                     row.coded.residual_reachable == 0;
  }
  const bool ok = all_recovered && crossover_pct >= 0.0;

  harness::BenchReport report("bench", "coded");
  report.add("ok", ok)
      .add("protocols", std::vector<std::string>{"RP", "CODED"})
      .add("nodes", config.num_nodes)
      .add("mean_clients", num_clients)
      .add("packets", config.num_packets)
      .add("runs", args.runs)
      .add("mean_burst_packets", config.mean_burst_packets)
      .add("window_size", config.coded.window_size)
      .add("crossover_loss_pct", crossover_pct);
  std::vector<harness::JsonObject> sweep;
  for (const Row& row : rows) {
    sweep.push_back(harness::JsonObject()
                        .add("loss_pct", row.loss_pct)
                        .add("losses", row.coded.losses)
                        .add("rp_source_tx", row.rp.source_requests)
                        .add("coded_source_tx",
                             row.coded.source_repair_multicasts)
                        .add("coded_nacks", row.coded.fec_nacks_sent)
                        .add("rp_latency_ms", row.rp.avg_latency_ms)
                        .add("coded_latency_ms", row.coded.avg_latency_ms)
                        .add("rp_bandwidth_hops", row.rp.avg_bandwidth_hops)
                        .add("coded_bandwidth_hops",
                             row.coded.avg_bandwidth_hops)
                        .add("rp_residual", row.rp.residual_reachable)
                        .add("coded_residual", row.coded.residual_reachable));
  }
  report.add("sweep", sweep);

  publish(report, args.out, args.json_stdout, [&] {
    std::cout << "coded crossover sweep: n=" << config.num_nodes << " (k~"
              << num_clients << "), " << config.num_packets << " packets x "
              << args.runs << " run(s), burst " << config.mean_burst_packets
              << "\n";
    harness::TextTable table({"loss %", "losses", "RP src tx", "coded src tx",
                              "coded NACKs", "RP lat (ms)", "coded lat (ms)"});
    for (const Row& row : rows) {
      table.addRow({harness::TextTable::num(row.loss_pct, 1),
                    std::to_string(row.coded.losses),
                    std::to_string(row.rp.source_requests),
                    std::to_string(row.coded.source_repair_multicasts),
                    std::to_string(row.coded.fec_nacks_sent),
                    harness::TextTable::num(row.rp.avg_latency_ms),
                    harness::TextTable::num(row.coded.avg_latency_ms)});
    }
    table.print(std::cout);
    if (crossover_pct >= 0.0) {
      std::cout << "crossover: coding beats RP's source load from "
                << harness::TextTable::num(crossover_pct, 1) << "% loss\n";
    } else {
      std::cout << "crossover: none in the swept range\n";
    }
  });
  return ok ? 0 : 1;
}

/// Parsim reports from different worker counts must agree in every field
/// but `lanes`, which the host clamps to its core count.
bool sameParsimReport(harness::ParsimReport a,
                      const harness::ParsimReport& b) {
  a.lanes = b.lanes;
  return a == b;
}

/// Whether a parallel transfer agrees with the serial one as
/// ParsimTest.LossyRpMatchesSerialHarness requires: every counter but the
/// event counts (handoffs add resume events) exactly, times to about 4 ulp,
/// and the mean latency to 1e-9 ms (regions merge their latency sums in
/// another order than the serial run adds them).
bool matchesSerial(const harness::TransferReport& serial,
                   const harness::TransferReport& parallel) {
  const auto near = [](double a, double b) {
    return std::abs(a - b) <= 4.0 * std::numeric_limits<double>::epsilon() *
                                  std::max(std::abs(a), std::abs(b));
  };
  const auto withoutEvents = [](harness::RunCounters counters) {
    counters.absorbed_arrivals = 0;
    counters.events_processed = 0;
    counters.events_by_kind = {};
    return counters;
  };
  if (serial.complete != parallel.complete ||
      withoutEvents(serial) != withoutEvents(parallel) ||
      !near(serial.duration_ms, parallel.duration_ms) ||
      std::abs(serial.avg_recovery_latency_ms -
               parallel.avg_recovery_latency_ms) > 1e-9 ||
      serial.completions.size() != parallel.completions.size()) {
    return false;
  }
  for (std::size_t i = 0; i < serial.completions.size(); ++i) {
    const harness::ClientCompletion& a = serial.completions[i];
    const harness::ClientCompletion& b = parallel.completions[i];
    if (a.client != b.client || a.losses != b.losses ||
        !near(a.completed_at_ms, b.completed_at_ms)) {
      return false;
    }
  }
  return true;
}

int cmdParsim(const util::Flags& flags) {
  const std::uint32_t nodes = getU32(flags, "nodes", 200);
  const std::uint32_t packets = getU32(flags, "packets", 200);
  const double loss = flags.getDouble("loss", 10.0) / 100.0;
  const std::uint64_t seed = flags.getUnsigned("seed", 1);
  const std::uint32_t regions = getU32(flags, "regions", 8);
  const std::vector<std::uint32_t> worker_counts =
      flags.getList<std::uint32_t>("workers", "1,2,4", 1,
                                   std::numeric_limits<std::uint32_t>::max());
  const auto kind = parseOneProtocol(flags.getString("protocol", "rp"));
  const bool lossy_recovery = flags.getBool("lossy-recovery", true);
  const std::uint32_t repeats = getU32(flags, "repeats", 3);
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
      } else if (!sameParsimReport(row.report, report)) {
        row.identical = false;  // not even self-consistent across repeats
      }
    }
    if (!rows.empty()) {
      row.identical = row.identical &&
                      sameParsimReport(rows.front().report, row.report);
    }
    rows.push_back(std::move(row));
  }

  bool all_identical = true;
  for (const Row& row : rows) all_identical &= row.identical;
  const Row& base = rows.front();
  // Every region keys its recovery losses and its scheme's draws as the
  // serial run does, and handed-over arrivals tie with local events as
  // serially, so the parallel run must equal the serial transfer
  // (DESIGN.md §14).
  const bool matches_serial =
      matchesSerial(harness::runTransfer(topo, config), base.report.transfer);
  const bool ok =
      all_identical && matches_serial && base.report.transfer.complete;
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
  const auto eventsPerSec = [](const Row& row) {
    return row.wall_ms > 0.0
               ? static_cast<double>(row.report.events) / (row.wall_ms / 1000.0)
               : 0.0;
  };
  const auto speedup = [&base](const Row& row) {
    return row.wall_ms > 0.0 ? base.wall_ms / row.wall_ms : 0.0;
  };

  harness::BenchReport report("bench", "parsim");
  report.add("protocol", toString(kind))
      .add("nodes", nodes)
      .add("clients", topo.clients.size())
      .add("packets", packets)
      .add("loss_prob", loss)
      .add("lossy_recovery", lossy_recovery)
      .add("seed", seed)
      .add("repeats", repeats)
      .add("target_regions", regions)
      .add("regions", base.report.regions)
      .add("lookahead_ms", base.report.lookahead_ms)
      .add("epochs", base.report.epochs)
      .add("handoffs", base.report.handoffs)
      .add("events", base.report.events)
      .add("region_runs", base.report.region_runs)
      .add("events_per_epoch", events_per_epoch)
      .add("active_regions_per_epoch", active_regions_per_epoch);
  std::vector<harness::JsonObject> sweep;
  for (const Row& row : rows) {
    sweep.push_back(harness::JsonObject()
                        .add("workers", row.workers)
                        .add("lanes", row.report.lanes)
                        .add("wall_ms", row.wall_ms)
                        .add("events_per_sec", eventsPerSec(row))
                        .add("speedup_vs_one_worker", speedup(row))
                        .add("identical", row.identical));
  }
  report.add("sweep", sweep)
      .add("identical_across_workers", all_identical)
      .add("matches_serial", matches_serial)
      .add("ok", ok);

  publish(report, out_path, json_stdout, [&] {
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
              << " handoffs; matches serial: "
              << (matches_serial ? "yes" : "no") << "\n";
    harness::TextTable table({"workers", "lanes", "wall (ms)", "events/sec",
                              "speedup", "identical"});
    for (const Row& row : rows) {
      table.addRow({std::to_string(row.workers),
                    std::to_string(row.report.lanes),
                    harness::TextTable::num(row.wall_ms),
                    harness::TextTable::num(eventsPerSec(row)),
                    harness::TextTable::num(speedup(row), 2),
                    row.identical ? "yes" : "NO"});
    }
    table.print(std::cout);
  });
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
