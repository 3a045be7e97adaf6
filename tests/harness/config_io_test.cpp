#include "harness/config_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace rmrn::harness {
namespace {

// Every key set away from its default.
ExperimentConfig nonDefaultSample() {
  ExperimentConfig c;
  c.num_nodes = 321;
  c.loss_prob = 0.07;
  c.num_packets = 77;
  c.data_interval_ms = 12.3;
  c.seed = 987654321;
  c.mean_burst_packets = 4.5;
  c.lossy_recovery = true;
  c.topology.model = net::BackboneModel::kWaxman;
  c.topology.extra_edge_fraction = 0.75;
  c.topology.waxman_alpha = 0.35;
  c.topology.waxman_beta = 0.45;
  c.topology.min_base_delay = 2.5;
  c.topology.max_base_delay = 7.25;
  c.protocol.detection_delay_ms = 3.5;
  c.protocol.timeout_factor = 2.25;
  c.protocol.min_timeout_ms = 0.5;
  c.protocol.session_deadline_ms = 9000.0;
  c.protocol.health.enabled = true;
  c.protocol.health.blacklist_after = 3;
  c.protocol.health.retry_budget = 99;
  c.protocol.health.max_backoff_factor = 6.5;
  c.protocol.health.srtt_alpha = 0.2;
  c.protocol.health.rttvar_beta = 0.3;
  c.protocol.health.rttvar_gain = 3.0;
  c.protocol.health.backoff_base = 1.5;
  c.faults.crash_fraction = 0.1;
  c.faults.stall_fraction = 0.05;
  c.faults.slow_fraction = 0.15;
  c.faults.at_ms = 600.0;
  c.faults.stagger_ms = 25.0;
  c.faults.slow_extra_ms = 80.0;
  c.faults.seed = 4242;
  c.faults.link_flap_fraction = 0.2;
  c.faults.flap_down_ms = 150.0;
  c.faults.flap_cycles = 3;
  c.faults.flap_period_ms = 400.0;
  c.faults.partition_fraction = 0.3;
  c.faults.partition_heal_ms = 700.0;
  c.faults.duplicate_prob = 0.05;
  c.faults.reorder_jitter_ms = 1.5;
  c.audit_failover_plans = true;
  c.srm.c1 = 1.5;
  c.srm.c2 = 2.5;
  c.srm.d1 = 0.75;
  c.srm.d2 = 1.25;
  c.srm.hold_factor = 4.0;
  c.srm.max_backoff = 6;
  c.parity.block_size = 16;
  c.parity.gather_window_ms = 33.0;
  c.coded.window_size = 24;
  c.coded.gather_window_ms = 41.5;
  c.rp_planner.timeout_ms = 250.0;
  c.rp_planner.per_peer_timeout_factor = 1.75;
  c.rp_planner.min_timeout_ms = 2.0;
  c.rp_planner.cost_model = core::CostModel::kRttOnly;
  c.rp_planner.allow_direct_source = false;
  c.rp_planner.max_list_length = 3;
  c.rp_planner.audit = true;
  c.rp_source_mode = protocols::SourceRecoveryMode::kSubgroupMulticast;
  return c;
}

// Compares every field the file holds; doubles exactly, since the writer
// prints max_digits10 digits.
void expectSameConfig(const ExperimentConfig& got,
                      const ExperimentConfig& want) {
  EXPECT_EQ(got.num_nodes, want.num_nodes);
  EXPECT_EQ(got.loss_prob, want.loss_prob);
  EXPECT_EQ(got.num_packets, want.num_packets);
  EXPECT_EQ(got.data_interval_ms, want.data_interval_ms);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.mean_burst_packets, want.mean_burst_packets);
  EXPECT_EQ(got.lossy_recovery, want.lossy_recovery);
  EXPECT_EQ(got.topology.model, want.topology.model);
  EXPECT_EQ(got.topology.extra_edge_fraction,
            want.topology.extra_edge_fraction);
  EXPECT_EQ(got.topology.waxman_alpha, want.topology.waxman_alpha);
  EXPECT_EQ(got.topology.waxman_beta, want.topology.waxman_beta);
  EXPECT_EQ(got.topology.min_base_delay, want.topology.min_base_delay);
  EXPECT_EQ(got.topology.max_base_delay, want.topology.max_base_delay);
  EXPECT_EQ(got.protocol.detection_delay_ms, want.protocol.detection_delay_ms);
  EXPECT_EQ(got.protocol.timeout_factor, want.protocol.timeout_factor);
  EXPECT_EQ(got.protocol.min_timeout_ms, want.protocol.min_timeout_ms);
  EXPECT_EQ(got.protocol.session_deadline_ms,
            want.protocol.session_deadline_ms);
  const protocols::PeerHealthConfig& gh = got.protocol.health;
  const protocols::PeerHealthConfig& wh = want.protocol.health;
  EXPECT_EQ(gh.enabled, wh.enabled);
  EXPECT_EQ(gh.blacklist_after, wh.blacklist_after);
  EXPECT_EQ(gh.retry_budget, wh.retry_budget);
  EXPECT_EQ(gh.max_backoff_factor, wh.max_backoff_factor);
  EXPECT_EQ(gh.srtt_alpha, wh.srtt_alpha);
  EXPECT_EQ(gh.rttvar_beta, wh.rttvar_beta);
  EXPECT_EQ(gh.rttvar_gain, wh.rttvar_gain);
  EXPECT_EQ(gh.backoff_base, wh.backoff_base);
  const sim::FaultPlan& gf = got.faults;
  const sim::FaultPlan& wf = want.faults;
  EXPECT_EQ(gf.crash_fraction, wf.crash_fraction);
  EXPECT_EQ(gf.stall_fraction, wf.stall_fraction);
  EXPECT_EQ(gf.slow_fraction, wf.slow_fraction);
  EXPECT_EQ(gf.at_ms, wf.at_ms);
  EXPECT_EQ(gf.stagger_ms, wf.stagger_ms);
  EXPECT_EQ(gf.slow_extra_ms, wf.slow_extra_ms);
  EXPECT_EQ(gf.seed, wf.seed);
  EXPECT_EQ(gf.link_flap_fraction, wf.link_flap_fraction);
  EXPECT_EQ(gf.flap_down_ms, wf.flap_down_ms);
  EXPECT_EQ(gf.flap_cycles, wf.flap_cycles);
  EXPECT_EQ(gf.flap_period_ms, wf.flap_period_ms);
  EXPECT_EQ(gf.partition_fraction, wf.partition_fraction);
  EXPECT_EQ(gf.partition_heal_ms, wf.partition_heal_ms);
  EXPECT_EQ(gf.duplicate_prob, wf.duplicate_prob);
  EXPECT_EQ(gf.reorder_jitter_ms, wf.reorder_jitter_ms);
  EXPECT_EQ(got.audit_failover_plans, want.audit_failover_plans);
  EXPECT_EQ(got.srm.c1, want.srm.c1);
  EXPECT_EQ(got.srm.c2, want.srm.c2);
  EXPECT_EQ(got.srm.d1, want.srm.d1);
  EXPECT_EQ(got.srm.d2, want.srm.d2);
  EXPECT_EQ(got.srm.hold_factor, want.srm.hold_factor);
  EXPECT_EQ(got.srm.max_backoff, want.srm.max_backoff);
  EXPECT_EQ(got.parity.block_size, want.parity.block_size);
  EXPECT_EQ(got.parity.gather_window_ms, want.parity.gather_window_ms);
  EXPECT_EQ(got.coded.window_size, want.coded.window_size);
  EXPECT_EQ(got.coded.gather_window_ms, want.coded.gather_window_ms);
  const core::PlannerOptions& gp = got.rp_planner;
  const core::PlannerOptions& wp = want.rp_planner;
  EXPECT_EQ(gp.timeout_ms, wp.timeout_ms);
  EXPECT_EQ(gp.per_peer_timeout_factor, wp.per_peer_timeout_factor);
  EXPECT_EQ(gp.min_timeout_ms, wp.min_timeout_ms);
  EXPECT_EQ(gp.cost_model, wp.cost_model);
  EXPECT_EQ(gp.allow_direct_source, wp.allow_direct_source);
  EXPECT_EQ(gp.max_list_length, wp.max_list_length);
  EXPECT_EQ(gp.audit, wp.audit);
  EXPECT_EQ(got.rp_source_mode, want.rp_source_mode);
}

std::vector<std::string> lines(const ExperimentConfig& config) {
  std::stringstream buffer;
  writeConfig(buffer, config);
  std::vector<std::string> result;
  for (std::string line; std::getline(buffer, line);) result.push_back(line);
  return result;
}

TEST(ConfigIoTest, RoundTripPreservesEveryField) {
  const ExperimentConfig original = nonDefaultSample();
  std::stringstream buffer;
  writeConfig(buffer, original);
  expectSameConfig(readConfig(buffer), original);

  // The sample moves every key: the two files share only the header.
  const std::vector<std::string> sample = lines(original);
  const std::vector<std::string> defaults = lines(ExperimentConfig{});
  ASSERT_EQ(sample.size(), defaults.size());
  EXPECT_EQ(sample.size(), 1u + 59u) << "header plus one line per key";
  for (std::size_t i = 1; i < sample.size(); ++i) {
    EXPECT_NE(sample[i], defaults[i]);
  }
}

TEST(ConfigIoTest, DefaultsSurviveRoundTrip) {
  const ExperimentConfig original;
  std::stringstream buffer;
  writeConfig(buffer, original);
  expectSameConfig(readConfig(buffer), original);
}

// Files written before the key table (52 keys; rp.max_list_length left out
// when unlimited) must keep reading back to the config that wrote them.
constexpr const char* kOldDefaultsFile = R"(# rmrn experiment configuration
num_nodes = 100
loss_prob = 0.050000000000000003
num_packets = 100
data_interval_ms = 50
seed = 1
mean_burst_packets = 1
lossy_recovery = false
topology.model = tree
topology.extra_edge_fraction = 0.5
topology.waxman_alpha = 0.20000000000000001
topology.waxman_beta = 0.29999999999999999
topology.min_base_delay = 1
topology.max_base_delay = 10
protocol.detection_delay_ms = 10
protocol.timeout_factor = 1.5
protocol.min_timeout_ms = 1
protocol.session_deadline_ms = 0
health.enabled = false
health.blacklist_after = 2
health.retry_budget = 64
health.max_backoff_factor = 8
faults.crash_fraction = 0
faults.stall_fraction = 0
faults.slow_fraction = 0
faults.at_ms = 0
faults.stagger_ms = 0
faults.slow_extra_ms = 50
faults.seed = 1
faults.link_flap_fraction = 0
faults.flap_down_ms = 0
faults.flap_cycles = 1
faults.flap_period_ms = 0
faults.partition_fraction = 0
faults.partition_heal_ms = 0
faults.duplicate_prob = 0
faults.reorder_jitter_ms = 0
audit_failover_plans = false
srm.c1 = 2
srm.c2 = 2
srm.d1 = 1
srm.d2 = 1
srm.hold_factor = 3
parity.block_size = 8
parity.gather_window_ms = 20
coded.window_size = 16
coded.gather_window_ms = 20
rp.timeout_ms = 0
rp.per_peer_timeout_factor = 0
rp.cost_model = expected
rp.allow_direct_source = true
rp.source_mode = unicast
)";
constexpr const char* kOldSampleFile = R"(# rmrn experiment configuration
num_nodes = 321
loss_prob = 0.070000000000000007
num_packets = 77
data_interval_ms = 12.300000000000001
seed = 987654321
mean_burst_packets = 4.5
lossy_recovery = true
topology.model = waxman
topology.extra_edge_fraction = 0.75
topology.waxman_alpha = 0.34999999999999998
topology.waxman_beta = 0.45000000000000001
topology.min_base_delay = 2.5
topology.max_base_delay = 7.25
protocol.detection_delay_ms = 3.5
protocol.timeout_factor = 2.25
protocol.min_timeout_ms = 0.5
protocol.session_deadline_ms = 9000
health.enabled = true
health.blacklist_after = 3
health.retry_budget = 99
health.max_backoff_factor = 6.5
faults.crash_fraction = 0.10000000000000001
faults.stall_fraction = 0.050000000000000003
faults.slow_fraction = 0.14999999999999999
faults.at_ms = 600
faults.stagger_ms = 25
faults.slow_extra_ms = 80
faults.seed = 4242
faults.link_flap_fraction = 0.20000000000000001
faults.flap_down_ms = 150
faults.flap_cycles = 3
faults.flap_period_ms = 400
faults.partition_fraction = 0.29999999999999999
faults.partition_heal_ms = 700
faults.duplicate_prob = 0.050000000000000003
faults.reorder_jitter_ms = 1.5
audit_failover_plans = true
srm.c1 = 1.5
srm.c2 = 2.5
srm.d1 = 0.75
srm.d2 = 1.25
srm.hold_factor = 4
parity.block_size = 16
parity.gather_window_ms = 33
coded.window_size = 24
coded.gather_window_ms = 41.5
rp.timeout_ms = 250
rp.per_peer_timeout_factor = 1.75
rp.cost_model = rtt-only
rp.allow_direct_source = false
rp.max_list_length = 3
rp.source_mode = subgroup
)";

TEST(ConfigIoTest, ReadsOldDefaultsFile) {
  std::stringstream in(kOldDefaultsFile);
  expectSameConfig(readConfig(in), ExperimentConfig{});
}

TEST(ConfigIoTest, ReadsOldSampleFile) {
  // The old format had no key for these seven fields; they keep defaults.
  ExperimentConfig want = nonDefaultSample();
  const ExperimentConfig defaults;
  want.srm.max_backoff = defaults.srm.max_backoff;
  want.protocol.health.srtt_alpha = defaults.protocol.health.srtt_alpha;
  want.protocol.health.rttvar_beta = defaults.protocol.health.rttvar_beta;
  want.protocol.health.rttvar_gain = defaults.protocol.health.rttvar_gain;
  want.protocol.health.backoff_base = defaults.protocol.health.backoff_base;
  want.rp_planner.min_timeout_ms = defaults.rp_planner.min_timeout_ms;
  want.rp_planner.audit = defaults.rp_planner.audit;
  std::stringstream in(kOldSampleFile);
  expectSameConfig(readConfig(in), want);
}

TEST(ConfigIoTest, PartialFileKeepsDefaults) {
  std::stringstream in("num_nodes = 42\nloss_prob = 0.2\n");
  const ExperimentConfig loaded = readConfig(in);
  EXPECT_EQ(loaded.num_nodes, 42u);
  EXPECT_DOUBLE_EQ(loaded.loss_prob, 0.2);
  const ExperimentConfig defaults;
  EXPECT_EQ(loaded.num_packets, defaults.num_packets);
  EXPECT_DOUBLE_EQ(loaded.srm.c1, defaults.srm.c1);
}

TEST(ConfigIoTest, CommentsAndWhitespace) {
  std::stringstream in(
      "# full line comment\n"
      "\n"
      "  num_nodes   =  9   # trailing\n");
  EXPECT_EQ(readConfig(in).num_nodes, 9u);
}

TEST(ConfigIoTest, UnknownKeyThrowsWithLineNumber) {
  std::stringstream in("num_nodes = 5\nnot_a_key = 1\n");
  try {
    (void)readConfig(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("not_a_key"), std::string::npos);
  }
}

TEST(ConfigIoTest, MalformedLineThrows) {
  std::stringstream in("num_nodes 5\n");
  EXPECT_THROW((void)readConfig(in), std::runtime_error);
}

TEST(ConfigIoTest, BadEnumThrows) {
  std::stringstream in("rp.cost_model = banana\n");
  EXPECT_THROW((void)readConfig(in), std::runtime_error);
}

TEST(ConfigIoTest, BadBooleanThrows) {
  std::stringstream in("lossy_recovery = maybe\n");
  EXPECT_THROW((void)readConfig(in), std::runtime_error);
}

// Values are checked like flags: each bad value is an error naming its line
// and key, never a silently wrapped or truncated number.
void expectRejected(const std::string& file, const std::string& line,
                    const std::string& key) {
  std::stringstream in(file);
  try {
    (void)readConfig(in);
    FAIL() << "expected throw for " << file;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + line + ":"), std::string::npos) << what;
    EXPECT_NE(what.find(key), std::string::npos) << what;
  }
}

TEST(ConfigIoTest, RejectsU32Overflow) {
  expectRejected("seed = 3\nnum_nodes = 4294967336\n", "2", "num_nodes");
}

TEST(ConfigIoTest, RejectsNegativeUnsigned) {
  expectRejected("# faults\n\nfaults.seed = -1\n", "3", "faults.seed");
}

TEST(ConfigIoTest, RejectsTrailingJunk) {
  expectRejected("num_nodes = 40\nseed = 2\nloss_prob = 0.05percent\n", "3",
                 "loss_prob");
}

}  // namespace
}  // namespace rmrn::harness
