#include "harness/bench_json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace rmrn::harness {
namespace {

std::string envelope() {
  return "  \"schema_version\": 2,\n  \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
}

TEST(BenchJsonTest, PinsTheReportLayout) {
  // Every shape a BENCH file uses: the envelope, scalars of each type, an
  // integer list, a string list, a one-line object, a row array, and
  // fields after the rows.
  BenchReport report("bench", "layout");
  report.add("ok", true)
      .add("protocols", std::vector<std::string>{"RP", "CODED"})
      .add("nodes", std::uint32_t{60})
      .add("mean_clients", 68.0 / 3.0)
      .add("clients_per_run", std::vector<std::uint32_t>{22, 23, 23})
      .add("topology", JsonObject()
                           .add("nodes", 2800)
                           .add("seed", std::uint64_t{7})
                           .add("loss_prob", 0.1));
  std::vector<JsonObject> rows;
  rows.push_back(JsonObject().add("loss_pct", 2.0).add("speedup", 3.310084));
  rows.push_back(JsonObject().add("loss_pct", 5.0).add("identical", false));
  report.add("sweep", rows).add("events_per_sec", 2322268.8461).add("done",
                                                                    false);

  EXPECT_EQ(report.str(),
            "{\n"
            "  \"bench\": \"layout\",\n" +
                envelope() +
                "  \"ok\": true,\n"
                "  \"protocols\": [\"RP\", \"CODED\"],\n"
                "  \"nodes\": 60,\n"
                "  \"mean_clients\": 22.66666667,\n"
                "  \"clients_per_run\": [22, 23, 23],\n"
                "  \"topology\": {\"nodes\": 2800, \"seed\": 7, "
                "\"loss_prob\": 0.1},\n"
                "  \"sweep\": [\n"
                "    {\"loss_pct\": 2, \"speedup\": 3.310084},\n"
                "    {\"loss_pct\": 5, \"identical\": false}\n"
                "  ],\n"
                "  \"events_per_sec\": 2322268.846,\n"
                "  \"done\": false\n"
                "}\n");
}

TEST(BenchJsonTest, ValuesRenderLikePrecisionTenStreams) {
  EXPECT_EQ(jsonValue(-1.0), "-1");
  EXPECT_EQ(jsonValue(1.180744445123), "1.180744445");
  EXPECT_EQ(jsonValue(std::uint64_t{18446744073709551615ULL}),
            "18446744073709551615");
  EXPECT_EQ(jsonValue(-42), "-42");
  EXPECT_EQ(jsonValue("part=none flap=0%"), "\"part=none flap=0%\"");
  EXPECT_EQ(jsonValue("say \"hi\"\\"), "\"say \\\"hi\\\"\\\\\"");
  EXPECT_EQ(jsonValue(std::vector<double>{}), "[]");
}

}  // namespace
}  // namespace rmrn::harness
