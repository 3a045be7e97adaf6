// Bit-exact goldens for the serial transfer harness: every TransferReport
// field, completions included, for all six recovery schemes under i.i.d. and
// Gilbert-Elliott data loss with lossy recovery links.  The values were
// captured before runTransfer() became the single-region run of the parallel
// harness; they pin that serial transfer output never moved.
#include "harness/transfer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "completion_hash.hpp"
#include "util/rng.hpp"

namespace rmrn::harness {
namespace {

net::Topology makeTopology(std::uint64_t seed, std::uint32_t n) {
  util::Rng rng(seed);
  net::TopologyConfig config;
  config.num_nodes = n;
  return net::generateTopology(config, rng);
}

struct Golden {
  ProtocolKind kind;
  double mean_burst_packets;
  bool complete;
  double duration_ms;
  std::size_t losses;
  std::size_t recoveries;
  double avg_recovery_latency_ms;
  metrics::Summary latency;
  std::uint64_t data_hops;
  std::uint64_t recovery_hops;
  double overhead;
  std::size_t num_completions;
  std::uint64_t completion_hash;
};

std::string describe(const Golden& g) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{ProtocolKind::k?, %.17g, %s, %.17g, %zu, %zu, %.17g,\n"
      " {%zu, %.17g, %.17g, %.17g, %.17g, %.17g, %.17g, %.17g},\n"
      " %llu, %llu, %.17g, %zu, 0x%016llxULL},",
      g.mean_burst_packets, g.complete ? "true" : "false", g.duration_ms,
      g.losses, g.recoveries, g.avg_recovery_latency_ms, g.latency.count,
      g.latency.mean, g.latency.stddev, g.latency.min, g.latency.max,
      g.latency.p50, g.latency.p95, g.latency.p99,
      static_cast<unsigned long long>(g.data_hops),
      static_cast<unsigned long long>(g.recovery_hops), g.overhead,
      g.num_completions, static_cast<unsigned long long>(g.completion_hash));
  return buf;
}

Golden observe(ProtocolKind kind, double mean_burst_packets,
               const TransferReport& r) {
  return {kind,
          mean_burst_packets,
          r.complete,
          r.duration_ms,
          r.losses,
          r.recoveries,
          r.avg_recovery_latency_ms,
          r.recovery_latency,
          r.data_hops,
          r.recovery_hops,
          r.overhead,
          r.completions.size(),
          completionHash(r)};
}

// clang-format off
const Golden kGoldens[] = {
    {ProtocolKind::kSrm, 1.0, true, 6542.3874673639457, 428, 428, 238.90630382356832,
     {428, 238.90630382356832, 541.33370346766822, 61.827564845704273, 6415.3246507000067, 130.1389737862489, 510.33154870890974, 2964.3890536415006},
     1308, 22735, 17.381498470948014, 21, 0x2c13d84d5f5e4de1ULL},
    {ProtocolKind::kSrm, 4.0, true, 12430.039170836897, 289, 289, 250.92213483567571,
     {289, 250.92213483567571, 736.93365990798179, 93.541966825737845, 12315.93013273912, 160.97717965831322, 425.90033213795493, 1357.8463270960669},
     1671, 18348, 10.980251346499102, 21, 0xfda0025b1eb81c9aULL},
    {ProtocolKind::kRma, 1.0, true, 1706.75647750645, 428, 428, 253.74151097031606,
     {428, 253.74151097031606, 185.33611508796471, 17.451792025343138, 1507.0679563011975, 228.33624316541204, 602.37911568432037, 991.92392758376536},
     1308, 13253, 10.132262996941895, 21, 0x6c11d9bfa45c8495ULL},
    {ProtocolKind::kRma, 4.0, true, 2727.037672197971, 289, 289, 286.51543679237665,
     {289, 286.51543679237665, 263.14985261603204, 17.451792025343138, 2531.6665825602663, 228.3362431654121, 605.89071641426312, 1444.1995223620174},
     1671, 10088, 6.0371035308198682, 21, 0x60ddbd7d2bf2bd1bULL},
    {ProtocolKind::kRp, 1.0, true, 2016.0471874420498, 428, 428, 162.15677225088311,
     {428, 162.15677225088311, 203.68750930992235, 3.8749661553754322, 1739.686770890976, 79.394112371154023, 561.60499884205956, 864.37644595857421},
     1308, 5600, 4.2813455657492359, 21, 0xb506e898fcc7ebd2ULL},
    {ProtocolKind::kRp, 4.0, true, 1680.1182756830074, 289, 289, 146.53941353438847,
     {289, 146.53941353438847, 188.9972289043352, 3.8749661553754606, 1544.7471860453027, 72.774255799732387, 549.90888102264319, 854.87842457666159},
     1671, 3532, 2.1137043686415322, 21, 0xe50095aec091a8e6ULL},
    {ProtocolKind::kSourceDirect, 1.0, true, 3170.8459222309284, 428, 428, 183.37024025796396,
     {428, 183.37024025796396, 234.39216319486536, 3.8749661553754322, 2910.4748325932237, 111.16964109178426, 596.45432020042927, 897.78673630180595},
     1308, 6540, 5, 21, 0xfb3eddfb2484c5afULL},
    {ProtocolKind::kSourceDirect, 4.0, true, 1685.104442057474, 289, 289, 169.33982014771257,
     {289, 169.33982014771257, 191.1125846856595, 3.8749661553754464, 1549.7333524197693, 78.051285548428538, 529.17724228967711, 800.68877628183941},
     1671, 4164, 2.4919210053859966, 21, 0xa23171cdfa7ffc51ULL},
    {ProtocolKind::kParityFec, 1.0, true, 3582.4647239279138, 428, 428, 183.46109990065108,
     {428, 183.46109990065108, 467.14493209872063, 31.963979372616613, 3335.4019072639744, 97.104532146381473, 246.58208012574204, 3314.0519072639745},
     1308, 11374, 8.6957186544342502, 21, 0xc73efe35ac1d25a9ULL},
    {ProtocolKind::kParityFec, 4.0, true, 716.82291854990785, 289, 289, 131.68867018131905,
     {289, 131.68867018131905, 82.635203762631335, 21.96397937261662, 450.46250199883411, 108.41651251866261, 301.00940159851746, 436.06250199883414},
     1671, 8904, 5.3285457809694794, 21, 0x4262d4e7b476e8e5ULL},
    {ProtocolKind::kCodedRlc, 1.0, true, 4837.2550940296369, 428, 428, 183.2030254185822,
     {428, 183.2030254185822, 464.10130996295044, 2.8542152974262081, 4530.8946774785636, 101.51215810646096, 358.06160823550812, 1172.5178645787896},
     1308, 11208, 8.5688073394495419, 21, 0x78b3c57850a8a0e4ULL},
    {ProtocolKind::kCodedRlc, 4.0, true, 692.52531866277354, 289, 289, 145.85754262086732,
     {289, 145.85754262086732, 111.86665021888332, 2.8542152974262081, 490.46250199883428, 109.03572243439629, 418.46250199883411, 476.06250199883431},
     1671, 9363, 5.6032315978456015, 21, 0x8c5ef39de10d6e1cULL},
};
// clang-format on

class TransferGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(TransferGolden, ReportIsBitIdentical) {
  const Golden& want = GetParam();
  const net::Topology topo = makeTopology(21, 70);
  TransferConfig config;
  config.protocol = want.kind;
  config.num_packets = 36;
  config.loss_prob = 0.1;
  config.mean_burst_packets = want.mean_burst_packets;
  config.lossy_recovery = true;
  config.seed = 17;
  const Golden got =
      observe(want.kind, want.mean_burst_packets, runTransfer(topo, config));
  SCOPED_TRACE("observed: " + describe(got));
  EXPECT_EQ(got.complete, want.complete);
  EXPECT_EQ(got.duration_ms, want.duration_ms);
  EXPECT_EQ(got.losses, want.losses);
  EXPECT_EQ(got.recoveries, want.recoveries);
  EXPECT_EQ(got.avg_recovery_latency_ms, want.avg_recovery_latency_ms);
  EXPECT_EQ(got.latency.count, want.latency.count);
  EXPECT_EQ(got.latency.mean, want.latency.mean);
  EXPECT_EQ(got.latency.stddev, want.latency.stddev);
  EXPECT_EQ(got.latency.min, want.latency.min);
  EXPECT_EQ(got.latency.max, want.latency.max);
  EXPECT_EQ(got.latency.p50, want.latency.p50);
  EXPECT_EQ(got.latency.p95, want.latency.p95);
  EXPECT_EQ(got.latency.p99, want.latency.p99);
  EXPECT_EQ(got.data_hops, want.data_hops);
  EXPECT_EQ(got.recovery_hops, want.recovery_hops);
  EXPECT_EQ(got.overhead, want.overhead);
  EXPECT_EQ(got.num_completions, want.num_completions);
  EXPECT_EQ(got.completion_hash, want.completion_hash);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, TransferGolden, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& param_info) {
      return std::string(toString(param_info.param.kind)) +
             (param_info.param.mean_burst_packets > 1.0 ? "_Burst" : "_Iid");
    });

}  // namespace
}  // namespace rmrn::harness
