// Bit-exact goldens for the serial transfer harness: every TransferReport
// field, completions included, for all six recovery schemes under i.i.d. and
// Gilbert-Elliott data loss with lossy recovery links.  The values were
// captured when recovery losses became keyed (send, link) draws
// (sim/keyed_loss.hpp).  The FEC and coded rows were re-captured once when
// the transfer moved onto the closed-form transport: their source sends a
// burst of parity floods at one instant, those arrive at agents at
// bit-equal times, and the closed form may fire such ties between
// different sends in another order (DESIGN.md §10.2), to which both
// schemes react.  They pin that serial transfer output never moves again.
// The SRM rows were re-captured once, when SRM's timer draws became keyed
// by (member, seq, arm, kind) instead of read from a sequential stream.
// kDigests, added later, pins each row's recovery digest
// (metrics::RecoveryMetrics): every recovery's times, terminal kind and
// request count, not only their aggregates.
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
    {ProtocolKind::kSrm, 1.0, true, 4829.917988053885, 428, 428, 270.79884929756622,
     {428, 270.79884929756622, 491.61891059907555, 55.081328785788514, 4772.0571531077976, 143.62679796891703, 844.45080464753198, 3078.7240516220368},
     1308, 21951, 16.782110091743121, 21, 0x9eb973f1dc0adf84ULL},
    {ProtocolKind::kSrm, 4.0, true, 84867.6407748169, 289, 289, 625.96904409079809,
     {289, 625.96904409079809, 5062.9122997562008, 92.098802507770088, 84721.280358265823, 189.04209847248683, 513.53673644193077, 4505.0840066218552},
     1671, 19146, 11.457809694793538, 21, 0xcbded0ddc519ae17ULL},
    {ProtocolKind::kRma, 1.0, true, 2761.5789198929447, 428, 428, 244.85797827621047,
     {428, 244.85797827621047, 238.32304397733961, 17.451792025343138, 2505.2185033418709, 221.30328364315869, 471.90988394002977, 1302.1499175210854},
     1308, 13244, 10.125382262996942, 21, 0x9a07374164a7d4fcULL},
    {ProtocolKind::kRma, 4.0, true, 1404.5420249146923, 289, 289, 245.98820059322227,
     {289, 245.98820059322227, 160.83426638507066, 27.066557183356679, 1132.4792082507531, 196.000109302889, 491.64517664997567, 924.77327984166504},
     1671, 9629, 5.762417713943746, 21, 0x35823da0142f6a71ULL},
    {ProtocolKind::kRp, 1.0, true, 1429.932905639643, 428, 428, 156.11819413033462,
     {428, 156.11819413033462, 178.83923630446506, 3.8749661553754322, 1204.5618160019383, 79.909948431541608, 524.19107591521038, 787.25977538304619},
     1308, 5502, 4.2064220183486238, 21, 0xfd4f11a6138f4b95ULL},
    {ProtocolKind::kRp, 4.0, true, 1392.8741310122132, 289, 289, 157.41528416446994,
     {289, 157.41528416446994, 197.54710047545129, 3.8749661553754464, 1228.8296464960385, 72.774255799732387, 610.43881361970739, 896.68163996219869},
     1671, 3754, 2.2465589467384799, 21, 0x4e04dd0631550e41ULL},
    {ProtocolKind::kSourceDirect, 1.0, true, 1393.8306484350387, 428, 428, 170.69747143590737,
     {428, 170.69747143590737, 192.14104826887532, 3.8749661553754322, 1248.8205687748566, 78.464780929597538, 596.45432020042927, 892.39166794050061},
     1308, 6221, 4.7561162079510702, 21, 0x9ec887f351456269ULL},
    {ProtocolKind::kSourceDirect, 4.0, true, 1505.9075767576815, 289, 289, 163.41839210229713,
     {289, 163.41839210229713, 183.80270487356614, 3.8749661553754606, 1365.8974970974994, 78.051285548428538, 529.17724228967711, 780.5128554842853},
     1671, 4103, 2.4554159186116098, 21, 0x3e1b483869f35cb6ULL},
    {ProtocolKind::kParityFec, 1.0, true, 1761.9309624198411, 428, 428, 139.24092630392337,
     {428, 139.24092630392337, 159.32017395105299, 27.93680021390405, 1455.5705458687673, 97.597447734351434, 276.53349923225545, 713.16804138482553},
     1308, 11021, 8.4258409785932713, 21, 0x8c11d4bc3353ef64ULL},
    {ProtocolKind::kParityFec, 4.0, true, 2971.4430206804309, 289, 289, 197.30171044634835,
     {289, 197.30171044634835, 348.27860277679503, 21.96397937261662, 2856.0719310427262, 108.68273736224197, 582.68268674965907, 2831.6719310427261},
     1671, 10424, 6.2381807301017353, 21, 0xda12b0ec430e5b2aULL},
    {ProtocolKind::kCodedRlc, 1.0, true, 522.9220247865818, 428, 428, 118.48816242840118,
     {428, 118.48816242840118, 70.698624776298743, 6.5121581064609586, 376.56160823550806, 98.416512518662671, 237.66071447218229, 350.21160823550815},
     1308, 10309, 7.8814984709480118, 21, 0x8eb10045b85464d1ULL},
    {ProtocolKind::kCodedRlc, 4.0, true, 624.16466174705386, 289, 289, 147.33948837838054,
     {289, 147.33948837838054, 99.779241784059806, 16.512158106460959, 422.1018450831146, 113.68273736224197, 364.77770297455061, 407.70184508311462},
     1671, 9601, 5.7456612806702569, 21, 0x95a74aba0ffdbf7cULL},
};
// clang-format on

/// The recovery digest of each row, kept out of Golden so the test
/// parameter, whose bytes name each test, stays as it was.
struct GoldenDigest {
  ProtocolKind kind;
  double mean_burst_packets;
  std::uint64_t digest;
};
constexpr GoldenDigest kDigests[] = {
    {ProtocolKind::kSrm, 1.0, 0xb741d35e6da30866ULL},
    {ProtocolKind::kSrm, 4.0, 0x35280d9244ffc93bULL},
    {ProtocolKind::kRma, 1.0, 0x44139d1a601fffceULL},
    {ProtocolKind::kRma, 4.0, 0x8032d679b9d11384ULL},
    {ProtocolKind::kRp, 1.0, 0x88ddafd3bbf2e228ULL},
    {ProtocolKind::kRp, 4.0, 0xe02ef091f05257b6ULL},
    {ProtocolKind::kSourceDirect, 1.0, 0x206f187c2d9420cbULL},
    {ProtocolKind::kSourceDirect, 4.0, 0x4d6a997d60b1580bULL},
    {ProtocolKind::kParityFec, 1.0, 0xfe6cab1c1d583d18ULL},
    {ProtocolKind::kParityFec, 4.0, 0xdc97549fff1e51bcULL},
    {ProtocolKind::kCodedRlc, 1.0, 0x1631c346c1f80857ULL},
    {ProtocolKind::kCodedRlc, 4.0, 0x389659f77d916469ULL},
};

std::uint64_t digestOf(const Golden& golden) {
  for (const GoldenDigest& d : kDigests) {
    if (d.kind == golden.kind &&
        d.mean_burst_packets == golden.mean_burst_packets) {
      return d.digest;
    }
  }
  ADD_FAILURE() << "no digest pinned for this row";
  return 0;
}

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
  const TransferReport report = runTransfer(topo, config);
  const Golden got = observe(want.kind, want.mean_burst_packets, report);
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
  EXPECT_EQ(report.recovery_digest, digestOf(want))
      << std::hex << "0x" << report.recovery_digest;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, TransferGolden, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& param_info) {
      return std::string(toString(param_info.param.kind)) +
             (param_info.param.mean_burst_packets > 1.0 ? "_Burst" : "_Iid");
    });

}  // namespace
}  // namespace rmrn::harness
