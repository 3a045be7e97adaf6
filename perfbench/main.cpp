// rmrn_perfbench: runs one benchmark workload and prints its metrics.
//
//   rmrn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Output: a `diagnostics` line (noise diagnostics: CPU time, steal time,
// context switches, thread counts), a `deterministic` line (the simulated
// values and counts that must repeat exactly for a seed), then as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when a correctness check fails, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in sync with BENCHMARK.json (test_bench.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.topology_s", "s"},
    {"net.routing_s", "s"},
    {"net.data_hops", "count"},
    {"net.recovery_hops", "count"},
    {"core.plan_s", "s"},
    {"core.shard_build_s", "s"},
    {"core.churn_ops", "count"},
    {"core.churn_us_p50", "us"},
    {"core.churn_us_p99", "us"},
    {"core.churn_single_us_p50", "us"},
    {"core.churn_multi_us_p50", "us"},
    {"core.churn_multi_us_p99", "us"},
    {"core.churn_multi_busy_s", "s"},
    {"core.churn_multi_frac", "ratio"},
    {"core.planned_delay_ms_p50", "ms"},
    {"core.planned_delay_ms_p95", "ms"},
    {"sim.loss_draw_s", "s"},
    {"sim.run_s.SRM", "s"},
    {"sim.run_s.RMA", "s"},
    {"sim.run_s.RP", "s"},
    {"sim.run_s.CODED", "s"},
    {"sim.events.SRM", "count"},
    {"sim.events.RMA", "count"},
    {"sim.events.RP", "count"},
    {"sim.events.CODED", "count"},
    {"sim.ns_per_event.SRM", "ns"},
    {"sim.ns_per_event.RMA", "ns"},
    {"sim.ns_per_event.RP", "ns"},
    {"sim.ns_per_event.CODED", "ns"},
    {"sim.parallel.regions", "count"},
    {"sim.parallel.epochs", "count"},
    {"sim.parallel.handoffs", "count"},
    {"sim.parallel.lookahead_ms", "ms"},
    {"sim.parallel.events_per_epoch", "ratio"},
    {"sim.parallel.handoffs_per_event", "ratio"},
    {"sim.parallel.us_per_epoch", "us"},
    {"sim.parallel.serial_ratio", "ratio"},
    {"sim.parallel.setup_s", "s"},
    {"sim.parallel.setup_frac", "ratio"},
    {"protocols.source_requests", "count"},
    {"protocols.repair_multicasts", "count"},
    {"protocols.nacks", "count"},
    {"protocols.retries", "count"},
    {"protocols.timeouts", "count"},
    {"protocols.duplicate_deliveries", "count"},
    {"protocols.useful_repair_frac", "ratio"},
    {"protocols.max_link_load", "count"},
    {"protocols.SRM.recovery_ms_mean", "ms"},
    {"protocols.RMA.recovery_ms_mean", "ms"},
    {"protocols.SRM.hops_per_recovery", "hops"},
    {"protocols.RMA.hops_per_recovery", "hops"},
    {"metrics.recovery_ms_p50", "ms"},
    {"metrics.recovery_ms_p95", "ms"},
    {"metrics.hops_per_recovery", "hops"},
    {"metrics.source_tx_per_loss", "ratio"},
    {"metrics.completion_ms", "ms"},
    {"metrics.losses", "count"},
    {"metrics.recoveries", "count"},
    {"trace.setup_s_ratio", "ratio"},
    {"trace.run_s_ratio", "ratio"},
    {"host.setup_s", "s"},
    {"host.run_s", "s"},
    {"host.reference_ms", "ms"},
};

/// Steal ticks of the aggregate `cpu` line of /proc/stat (0 if absent).
unsigned long long stealTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  unsigned long long fields[8] = {};
  if (!(stat >> label) || label != "cpu") return 0;
  for (unsigned long long& f : fields) {
    if (!(stat >> f)) return 0;
  }
  return fields[7];
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string jsonObject(const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << number(value);
    first = false;
  }
  out << "}";
  return out.str();
}

int usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: rmrn_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  const auto& names = perfbench::workloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  const unsigned long long steal_before = stealTicks();
  perfbench::Tracer tracer(options.workload);
  perfbench::Report report;
  try {
    report = perfbench::runWorkload(options, tracer);
  } catch (const std::exception& e) {
    report.problems.push_back(std::string("exception: ") + e.what());
  }

  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);
  const double user_s = static_cast<double>(usage_self.ru_utime.tv_sec) +
                        static_cast<double>(usage_self.ru_utime.tv_usec) / 1e6;
  const long hz = sysconf(_SC_CLK_TCK);
  std::map<std::string, double> diagnostics = {
      {"user_cpu_s", user_s},
      {"process_peak_rss_mb",
       static_cast<double>(usage_self.ru_maxrss) / 1024.0},  // KiB
      {"steal_s", static_cast<double>(stealTicks() - steal_before) /
                      static_cast<double>(hz > 0 ? hz : 100)},
      {"involuntary_ctx_switches", static_cast<double>(usage_self.ru_nivcsw)},
      {"parsim_workers", static_cast<double>(report.workers)},
      {"pool_lanes", static_cast<double>(report.pool_lanes)},
      {"parsim_identity_checks", static_cast<double>(report.identity_checks)},
      {"nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))},
      {"untraced_rounds", static_cast<double>(report.untraced_rounds)},
      {"traced_rounds", static_cast<double>(report.traced_rounds)},
  };
  std::cout << "diagnostics " << jsonObject(diagnostics) << "\n";
  std::cout << "deterministic " << jsonObject(report.deterministic) << "\n";

  if (options.trace) {
    const std::string trace_dir = ".bench_out";
    std::filesystem::create_directories(trace_dir);
    const std::string path = trace_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    tracer.writeJson(path, options.seed);
    std::cout << "trace " << tracer.size() << " spans written to " << path
              << "\n";
  }

  const auto* defs_begin = options.trace ? std::begin(kPerLayer)
                                         : std::begin(kEndToEnd);
  const auto* defs_end = options.trace ? std::end(kPerLayer)
                                       : std::end(kEndToEnd);
  const std::map<std::string, double>& values =
      options.trace ? report.per_layer : report.end_to_end;
  for (const auto& [name, value] : values) {
    if (std::none_of(defs_begin, defs_end, [&name](const MetricDef& d) {
          return name == d.name;
        })) {
      report.problems.push_back("undeclared metric " + name);
    }
  }
  std::ostringstream metrics;
  for (const auto* d = defs_begin; d != defs_end; ++d) {
    const auto it = values.find(d->name);
    double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      report.problems.push_back(std::string("non-finite metric ") + d->name);
      value = 0.0;
    }
    metrics << (d == defs_begin ? "" : ", ") << "\"" << d->name
            << "\": {\"value\": " << number(value) << ", \"unit\": \""
            << d->unit << "\"}";
  }
  for (const std::string& problem : report.problems) {
    std::cerr << "check failed: " << problem << "\n";
  }
  const bool correct = report.problems.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}
