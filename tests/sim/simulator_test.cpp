#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "support/scheduled_calls.hpp"

namespace rmrn::sim {
namespace {

using test_support::ScheduledCalls;

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  ScheduledCalls calls(sim);
  std::vector<double> times;
  calls.at(5.0, [&] { times.push_back(sim.now()); });
  calls.at(2.0, [&] { times.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{2.0, 5.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  ScheduledCalls calls(sim);
  double fired_at = -1.0;
  calls.at(10.0, [&] {
    calls.after(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(SimulatorTest, RunUntilStopsEarly) {
  Simulator sim;
  ScheduledCalls calls(sim);
  int fired = 0;
  calls.at(1.0, [&] { ++fired; });
  calls.at(10.0, [&] { ++fired; });
  const auto count = sim.run(5.0);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunReturnsEventCount) {
  Simulator sim;
  ScheduledCalls calls(sim);
  for (int i = 0; i < 7; ++i) calls.at(i, [] {});
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(sim.eventsProcessed(), 7u);
}

TEST(SimulatorTest, StepFiresExactlyOne) {
  Simulator sim;
  ScheduledCalls calls(sim);
  int fired = 0;
  calls.at(1.0, [&] { ++fired; });
  calls.at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, CancelStopsEvent) {
  Simulator sim;
  ScheduledCalls calls(sim);
  int fired = 0;
  const EventId id = calls.at(1.0, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, ThrowsOnSchedulingIntoThePast) {
  Simulator sim;
  ScheduledCalls calls(sim);
  calls.at(10.0, [&] {
    EXPECT_THROW(calls.at(5.0, [] {}), std::invalid_argument);
  });
  sim.run();
  EXPECT_THROW(calls.at(5.0, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, ThrowsOnNegativeDelay) {
  Simulator sim;
  ScheduledCalls calls(sim);
  EXPECT_THROW(calls.after(-1.0, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, EventsCanScheduleChains) {
  Simulator sim;
  ScheduledCalls calls(sim);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) calls.after(1.0, chain);
  };
  calls.after(1.0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(SimulatorTest, PendingEventsCount) {
  Simulator sim;
  ScheduledCalls calls(sim);
  calls.at(1.0, [] {});
  calls.at(2.0, [] {});
  EXPECT_EQ(sim.pendingEvents(), 2u);
  sim.step();
  EXPECT_EQ(sim.pendingEvents(), 1u);
}

}  // namespace
}  // namespace rmrn::sim
