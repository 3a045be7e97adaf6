#include "harness/config_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace rmrn::harness {
namespace {

TEST(ConfigIoTest, RoundTripPreservesEveryField) {
  ExperimentConfig original;
  original.num_nodes = 321;
  original.loss_prob = 0.125;
  original.num_packets = 77;
  original.data_interval_ms = 12.5;
  original.seed = 987654321;
  original.mean_burst_packets = 4.5;
  original.lossy_recovery = true;
  original.topology.extra_edge_fraction = 0.75;
  original.topology.min_base_delay = 2.5;
  original.topology.max_base_delay = 7.25;
  original.protocol.detection_delay_ms = 3.5;
  original.protocol.timeout_factor = 2.25;
  original.protocol.min_timeout_ms = 0.5;
  original.srm.c1 = 1.5;
  original.srm.c2 = 2.5;
  original.srm.d1 = 0.75;
  original.srm.d2 = 1.25;
  original.srm.hold_factor = 4.0;
  original.parity.block_size = 16;
  original.parity.gather_window_ms = 33.0;
  original.coded.window_size = 24;
  original.coded.gather_window_ms = 41.5;
  original.rp_planner.timeout_ms = 250.0;
  original.rp_planner.per_peer_timeout_factor = 1.75;
  original.rp_planner.cost_model = core::CostModel::kRttOnly;
  original.rp_planner.allow_direct_source = false;
  original.rp_planner.max_list_length = 3;
  original.rp_source_mode = protocols::SourceRecoveryMode::kSubgroupMulticast;

  std::stringstream buffer;
  writeConfig(buffer, original);
  const ExperimentConfig loaded = readConfig(buffer);

  EXPECT_EQ(loaded.num_nodes, original.num_nodes);
  EXPECT_DOUBLE_EQ(loaded.loss_prob, original.loss_prob);
  EXPECT_EQ(loaded.num_packets, original.num_packets);
  EXPECT_DOUBLE_EQ(loaded.data_interval_ms, original.data_interval_ms);
  EXPECT_EQ(loaded.seed, original.seed);
  EXPECT_DOUBLE_EQ(loaded.mean_burst_packets, original.mean_burst_packets);
  EXPECT_EQ(loaded.lossy_recovery, original.lossy_recovery);
  EXPECT_DOUBLE_EQ(loaded.topology.extra_edge_fraction,
                   original.topology.extra_edge_fraction);
  EXPECT_DOUBLE_EQ(loaded.topology.min_base_delay,
                   original.topology.min_base_delay);
  EXPECT_DOUBLE_EQ(loaded.topology.max_base_delay,
                   original.topology.max_base_delay);
  EXPECT_DOUBLE_EQ(loaded.protocol.detection_delay_ms,
                   original.protocol.detection_delay_ms);
  EXPECT_DOUBLE_EQ(loaded.protocol.timeout_factor,
                   original.protocol.timeout_factor);
  EXPECT_DOUBLE_EQ(loaded.protocol.min_timeout_ms,
                   original.protocol.min_timeout_ms);
  EXPECT_DOUBLE_EQ(loaded.srm.c1, original.srm.c1);
  EXPECT_DOUBLE_EQ(loaded.srm.c2, original.srm.c2);
  EXPECT_DOUBLE_EQ(loaded.srm.d1, original.srm.d1);
  EXPECT_DOUBLE_EQ(loaded.srm.d2, original.srm.d2);
  EXPECT_DOUBLE_EQ(loaded.srm.hold_factor, original.srm.hold_factor);
  EXPECT_EQ(loaded.parity.block_size, original.parity.block_size);
  EXPECT_DOUBLE_EQ(loaded.parity.gather_window_ms,
                   original.parity.gather_window_ms);
  EXPECT_EQ(loaded.coded.window_size, original.coded.window_size);
  EXPECT_DOUBLE_EQ(loaded.coded.gather_window_ms,
                   original.coded.gather_window_ms);
  EXPECT_DOUBLE_EQ(loaded.rp_planner.timeout_ms,
                   original.rp_planner.timeout_ms);
  EXPECT_DOUBLE_EQ(loaded.rp_planner.per_peer_timeout_factor,
                   original.rp_planner.per_peer_timeout_factor);
  EXPECT_EQ(loaded.rp_planner.cost_model, original.rp_planner.cost_model);
  EXPECT_EQ(loaded.rp_planner.allow_direct_source,
            original.rp_planner.allow_direct_source);
  EXPECT_EQ(loaded.rp_planner.max_list_length,
            original.rp_planner.max_list_length);
  EXPECT_EQ(loaded.rp_source_mode, original.rp_source_mode);
}

TEST(ConfigIoTest, DefaultsSurviveRoundTrip) {
  const ExperimentConfig original;
  std::stringstream buffer;
  writeConfig(buffer, original);
  const ExperimentConfig loaded = readConfig(buffer);
  EXPECT_EQ(loaded.num_nodes, original.num_nodes);
  EXPECT_EQ(loaded.rp_planner.max_list_length,
            original.rp_planner.max_list_length);
  EXPECT_EQ(loaded.rp_planner.cost_model, original.rp_planner.cost_model);
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

}  // namespace
}  // namespace rmrn::harness
