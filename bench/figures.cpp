// Reproduces the paper's §5 evaluation, Figures 5-8.  Each of the two
// sweeps runs once and feeds two figures:
//
//   Fig. 5/6  recovery latency (ms) / bandwidth (hops) per packet recovered
//             vs clients, p = 5%.  Paper: RP ~78% / ~38.5% below SRM and
//             ~71% / ~23.2% below RMA; RP and SRM curves steadier than RMA.
//   Fig. 7/8  the same vs per-link loss 2%..20%, n = 500.  Paper: near-flat
//             latency, RP ~78.5% below SRM and ~56% below RMA; SRM's
//             bandwidth DECREASES in p (fixed-cost floods amortized over
//             more recoveries) while RMA's and RP's increase.
//
// Absolute milliseconds depend on the unpublished random topologies; the
// shape (ordering, rough factors, trends) is the target (EXPERIMENTS.md).
//
//   figures [--coded] [--threads N] [--csv DIR] [--crash-rate F]
//           [--stall-rate F] [--slow-rate F] [--slow-extra MS]
//           [--fault-time MS] [--fault-seed S]
//
// --coded adds the sliding-window RLC arm (DESIGN.md §13) as a fourth
// column; it draws from its own RNG substream, so the other columns are
// unchanged.  --threads fans out the per-seed repetitions (0 = hardware
// concurrency) without changing any result.  The fault flags inject client
// faults (fractions of clients, DESIGN.md §9).  --csv writes fig5.csv ..
// fig8.csv into DIR.  Exit 1 when any arm left a loss unrecovered at any
// sweep point, 2 on an unknown flag.
#include <cctype>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "figure_common.hpp"
#include "harness/csv.hpp"
#include "util/flags.hpp"

namespace {

using namespace rmrn;
using harness::ProtocolKind;
using harness::ProtocolResult;
using harness::TextTable;

enum class Axis { kClients, kLoss };

struct Figure {
  int number;
  Axis axis;
  double ProtocolResult::*metric;
  const char* y_label;
  const char* title;
};

constexpr Figure kFigures[] = {
    {5, Axis::kClients, &ProtocolResult::avg_latency_ms, "latency",
     "Figure 5: average recovery latency per packet recovered (ms), p = 5%"},
    {6, Axis::kClients, &ProtocolResult::avg_bandwidth_hops, "bandwidth",
     "Figure 6: average bandwidth usage per packet recovered (hops), p = 5%"},
    {7, Axis::kLoss, &ProtocolResult::avg_latency_ms, "latency",
     "Figure 7: average delay per packet recovered (ms), n = 500"},
    {8, Axis::kLoss, &ProtocolResult::avg_bandwidth_hops, "bandwidth",
     "Figure 8: average bandwidth usage per packet recovered (hops), "
     "n = 500"},
};

struct SweepPoint {
  double x = 0.0;  // client count (Figs. 5/6) or loss percent (Figs. 7/8)
  harness::ExperimentResult result;
};

const char* xLabel(Axis axis) {
  return axis == Axis::kClients ? "n(clients)" : "p(%)";
}

/// Runs one paper sweep.  Figs. 5/6: topologies of n nodes at p = 5%, three
/// runs each; Figs. 7/8: n = 500 at p = 2% .. 20%, two runs each.
std::vector<SweepPoint> runSweep(Axis axis,
                                 std::span<const ProtocolKind> kinds,
                                 unsigned threads,
                                 const sim::FaultPlan& faults) {
  static constexpr std::uint32_t kSizes[] = {50, 100, 200, 300, 400, 500, 600};
  static constexpr double kLossProbs[] = {0.02, 0.04, 0.06, 0.08, 0.10,
                                          0.12, 0.14, 0.16, 0.18, 0.20};
  const bool clients = axis == Axis::kClients;
  std::cerr << "[figures] "
            << (clients ? "client sweep (p = 5%)" : "loss sweep (n = 500)")
            << "\n";
  std::vector<SweepPoint> sweep;
  std::uint64_t sweep_events = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t points =
      clients ? std::size(kSizes) : std::size(kLossProbs);
  for (std::size_t i = 0; i < points; ++i) {
    harness::ExperimentConfig config = bench::baseConfig();
    config.faults = faults;
    if (clients) {
      config.num_nodes = kSizes[i];
      config.loss_prob = 0.05;
      config.seed += kSizes[i];  // distinct topology per size, like the paper
    } else {
      config.num_nodes = 500;
      config.loss_prob = kLossProbs[i];
    }
    harness::ExperimentResult result = harness::runAveragedExperiment(
        config, clients ? 3 : 2, kinds, threads);
    std::uint64_t events = 0;
    for (const ProtocolResult& r : result.protocols) {
      events += r.events_processed;
    }
    sweep_events += events;
    if (clients) {
      std::cerr << "  n=" << config.num_nodes << " done (k~"
                << result.num_clients << ", " << events << " events)\n";
    } else {
      std::cerr << "  p=" << 100.0 * config.loss_prob << "% done (" << events
                << " events)\n";
    }
    const double x = clients ? result.num_clients : 100.0 * config.loss_prob;
    sweep.push_back({x, std::move(result)});
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  std::cerr << "  engine: " << sweep_events << " events in " << wall_ms
            << " ms ("
            << (wall_ms > 0.0
                    ? static_cast<double>(sweep_events) / (wall_ms / 1000.0)
                    : 0.0)
            << " events/sec)\n";
  return sweep;
}

/// The paper-style table, the headline percentage comparisons and, for
/// Fig. 8, the trend check the paper calls out in its text.
void printFigure(const Figure& figure, const std::vector<SweepPoint>& sweep,
                 std::span<const ProtocolKind> kinds) {
  std::cout << figure.title << "\n";
  std::vector<std::string> header{xLabel(figure.axis), "clients"};
  for (const ProtocolKind kind : kinds) {
    header.push_back(std::string(toString(kind)) + " " + figure.y_label);
  }
  TextTable table(header);
  std::vector<double> sums(kinds.size(), 0.0);
  for (const SweepPoint& point : sweep) {
    std::vector<std::string> cells{
        TextTable::num(point.x, 0),
        TextTable::num(point.result.num_clients, 0)};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const double value = point.result.result(kinds[k]).*figure.metric;
      cells.push_back(TextTable::num(value));
      sums[k] += value;
    }
    table.addRow(cells);
  }
  table.print(std::cout);
  // kinds is SRM, RMA, RP, then CODED when the coded arm ran.
  const double rp = sums[2];
  if (sums[0] > 0.0 && sums[1] > 0.0) {
    std::cout << "RP vs SRM: "
              << TextTable::num(100.0 * (1.0 - rp / sums[0]), 2)
              << "% lower; RP vs RMA: "
              << TextTable::num(100.0 * (1.0 - rp / sums[1]), 2)
              << "% lower (averaged over the sweep)\n";
  }
  if (kinds.size() > 3 && rp > 0.0) {
    std::cout << "CODED vs RP: "
              << TextTable::num(100.0 * (1.0 - sums[3] / rp), 2)
              << "% lower (averaged over the sweep; see BENCH_coded.json "
                 "for the source-load crossover)\n";
  }
  std::cout << std::endl;
  if (figure.number == 8 && sweep.size() >= 2) {
    const auto hops = [&](const SweepPoint& point, ProtocolKind kind) {
      return point.result.result(kind).avg_bandwidth_hops;
    };
    const SweepPoint& first = sweep.front();
    const SweepPoint& last = sweep.back();
    std::cout << "SRM trend (p=2% -> 20%): "
              << (hops(last, ProtocolKind::kSrm) <
                          hops(first, ProtocolKind::kSrm)
                      ? "decreasing"
                      : "increasing")
              << "; RP trend: "
              << (hops(last, ProtocolKind::kRp) > hops(first, ProtocolKind::kRp)
                      ? "increasing"
                      : "decreasing")
              << "\n";
  }
}

/// The figure's rows as CSV: x, clients, then one column per protocol.
bool writeCsv(const std::string& path, const Figure& figure,
              const std::vector<SweepPoint>& sweep,
              std::span<const ProtocolKind> kinds) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open csv path " << path << "\n";
    return false;
  }
  harness::CsvWriter csv(out);
  std::vector<std::string> header{xLabel(figure.axis), "clients"};
  for (const ProtocolKind kind : kinds) {
    std::string name(toString(kind));
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    header.push_back(name + "_" + figure.y_label);
  }
  csv.row(header);
  for (const SweepPoint& point : sweep) {
    std::vector<std::string> cells{
        TextTable::num(point.x, 4),
        TextTable::num(point.result.num_clients, 0)};
    for (const ProtocolKind kind : kinds) {
      cells.push_back(
          TextTable::num(point.result.result(kind).*figure.metric, 6));
    }
    csv.row(cells);
  }
  std::cerr << "wrote " << path << "\n";
  return true;
}

int run(const util::Flags& flags) {
  static constexpr ProtocolKind kWithCoded[] = {
      ProtocolKind::kSrm, ProtocolKind::kRma, ProtocolKind::kRp,
      ProtocolKind::kCodedRlc};
  const std::span<const ProtocolKind> kinds =
      flags.getBool("coded", false)
          ? std::span<const ProtocolKind>(kWithCoded)
          : std::span<const ProtocolKind>(harness::kAllProtocols);
  const auto threads = static_cast<unsigned>(flags.getUnsigned(
      "threads", 0, std::numeric_limits<std::uint32_t>::max()));
  sim::FaultPlan faults;
  faults.crash_fraction = flags.getDouble("crash-rate", faults.crash_fraction);
  faults.stall_fraction = flags.getDouble("stall-rate", faults.stall_fraction);
  faults.slow_fraction = flags.getDouble("slow-rate", faults.slow_fraction);
  faults.slow_extra_ms = flags.getDouble("slow-extra", faults.slow_extra_ms);
  faults.at_ms = flags.getDouble("fault-time", faults.at_ms);
  faults.seed = flags.getUnsigned("fault-seed", faults.seed);
  const std::string csv_dir = flags.getString("csv", "");
  const auto unknown = flags.unconsumed();
  for (const auto& name : unknown) {
    std::cerr << "unknown flag --" << name << "\n";
  }
  if (!unknown.empty()) return 2;

  bool ok = true;
  for (const Axis axis : {Axis::kClients, Axis::kLoss}) {
    const std::vector<SweepPoint> sweep =
        runSweep(axis, kinds, threads, faults);
    for (const SweepPoint& point : sweep) {
      for (const ProtocolResult& r : point.result.protocols) {
        ok &= r.fully_recovered;
      }
    }
    for (const Figure& figure : kFigures) {
      if (figure.axis != axis) continue;
      printFigure(figure, sweep, kinds);
      if (!csv_dir.empty()) {
        const std::string path =
            csv_dir + "/fig" + std::to_string(figure.number) + ".csv";
        ok &= writeCsv(path, figure, sweep, kinds);
      }
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Flags(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
