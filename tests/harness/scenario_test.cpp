#include "harness/scenario.hpp"

#include <gtest/gtest.h>

#include "harness/checkpoint.hpp"
#include "metrics/fairness.hpp"

namespace wormsched::harness {
namespace {

traffic::WorkloadSpec simple_workload(std::size_t flows, double rate) {
  traffic::WorkloadSpec spec;
  for (std::size_t i = 0; i < flows; ++i) {
    traffic::FlowSpec f;
    f.arrival = traffic::ArrivalSpec::bernoulli(rate);
    f.length = traffic::LengthSpec::uniform(1, 16);
    spec.flows.push_back(f);
  }
  return spec;
}

TEST(Scenario, RunsEveryRegisteredScheduler) {
  ScenarioConfig config;
  config.horizon = 5000;
  const auto trace =
      traffic::generate_trace(simple_workload(3, 0.01), 5000, 1);
  for (const auto name : core::scheduler_names()) {
    const ScenarioResult result = run_scenario(name, config, trace);
    EXPECT_EQ(result.scheduler_name, name);
    EXPECT_EQ(result.end_cycle, 5000u);
    EXPECT_GT(result.service_log.grand_total(), 0) << name;
  }
}

TEST(Scenario, ConservationUnderLightLoad) {
  // Light load + no drain: everything injected early gets served.
  ScenarioConfig config;
  config.horizon = 20000;
  auto workload = simple_workload(3, 0.005);
  workload.inject_until = 15000;
  const auto trace = traffic::generate_trace(workload, config.horizon, 2);
  const auto result = run_scenario("err", config, trace);
  EXPECT_EQ(result.service_log.grand_total() + result.residual_backlog,
            trace.total_flits());
}

TEST(Scenario, DrainServesEverything) {
  ScenarioConfig config;
  config.horizon = 2000;
  config.drain = true;
  auto workload = simple_workload(4, 0.05);  // overloaded during injection
  workload.inject_until = 2000;
  const auto trace = traffic::generate_trace(workload, config.horizon, 3);
  const auto result = run_scenario("pbrr", config, trace);
  EXPECT_EQ(result.residual_backlog, 0);
  EXPECT_EQ(result.service_log.grand_total(), trace.total_flits());
  EXPECT_GE(result.end_cycle, 2000u);
  EXPECT_EQ(result.delays.packets(), trace.entries.size());
}

TEST(Scenario, MaxServedPacketTracksM) {
  ScenarioConfig config;
  config.horizon = 3000;
  config.drain = true;
  traffic::WorkloadSpec workload;
  traffic::FlowSpec f;
  f.arrival = traffic::ArrivalSpec::bernoulli(0.01);
  f.length = traffic::LengthSpec::constant(13);
  workload.flows.push_back(f);
  workload.inject_until = 3000;
  const auto result = run_scenario("fcfs", config, workload);
  EXPECT_EQ(result.max_served_packet, 13);
}

TEST(Scenario, ServiceStartsAreRecorded) {
  ScenarioConfig config;
  config.horizon = 3000;
  config.drain = true;
  auto workload = simple_workload(2, 0.01);
  workload.inject_until = 3000;
  const auto trace = traffic::generate_trace(workload, config.horizon, 4);
  const auto result = run_scenario("err", config, trace);
  EXPECT_EQ(result.service_starts.size(), trace.entries.size());
}

TEST(Scenario, WeightsReachTheScheduler) {
  ScenarioConfig config;
  config.horizon = 30000;
  config.weights = {3.0, 1.0};
  // Saturate both flows.
  traffic::WorkloadSpec workload;
  for (int i = 0; i < 2; ++i) {
    traffic::FlowSpec f;
    f.arrival = traffic::ArrivalSpec::bernoulli(0.2);
    f.length = traffic::LengthSpec::uniform(1, 8);
    workload.flows.push_back(f);
  }
  const auto trace = traffic::generate_trace(workload, config.horizon, 5);
  const auto result = run_scenario("err", config, trace);
  const double ratio =
      static_cast<double>(result.service_log.total(FlowId(0))) /
      static_cast<double>(result.service_log.total(FlowId(1)));
  EXPECT_NEAR(ratio, 3.0, 0.2);
}

TEST(Scenario, SameTraceSameSchedulerIsBitReproducible) {
  ScenarioConfig config;
  config.horizon = 8000;
  const auto trace =
      traffic::generate_trace(simple_workload(3, 0.02), 8000, 6);
  const auto a = run_scenario("err", config, trace);
  const auto b = run_scenario("err", config, trace);
  for (std::uint32_t f = 0; f < 3; ++f)
    EXPECT_EQ(a.service_log.total(FlowId(f)),
              b.service_log.total(FlowId(f)));
  EXPECT_EQ(a.service_starts, b.service_starts);
}

TEST(Scenario, TraceSuppliedRunSegmentsLikeOneCall) {
  // run_scenario is ScenarioRun driven in one segment; stopping the same
  // run at an arbitrary cycle and continuing changes nothing.
  ScenarioConfig config;
  config.horizon = 6000;
  config.drain = true;
  const auto trace =
      traffic::generate_trace(simple_workload(3, 0.05), 6000, 8);
  const auto whole = run_scenario("err", config, trace);
  ScenarioRun run("err", config, trace);
  run.advance_to(1777);
  EXPECT_EQ(run.now(), 1777u);
  run.run_to_completion();
  const ScenarioResult split = run.finish();
  EXPECT_EQ(whole.end_cycle, split.end_cycle);
  EXPECT_EQ(whole.service_starts, split.service_starts);
  EXPECT_EQ(whole.delays.overall().sum(), split.delays.overall().sum());
  for (std::uint32_t f = 0; f < 3; ++f)
    EXPECT_EQ(whole.service_log.total(FlowId(f)),
              split.service_log.total(FlowId(f)));
}

TEST(ScenarioDeath, TraceSuppliedRunRefusesCheckpoint) {
  // SCFG could not rebuild a caller's trace, so there is nothing to save.
  ScenarioConfig config;
  config.horizon = 100;
  const auto trace = traffic::generate_trace(simple_workload(2, 0.1), 100, 1);
  ScenarioRun run("err", config, trace);
  run.advance_to(50);
  EXPECT_DEATH((void)run.make_snapshot_file(), "cannot be checkpointed");
}

TEST(ScenarioDeath, UnknownSchedulerAborts) {
  ScenarioConfig config;
  config.horizon = 10;
  const auto trace = traffic::generate_trace(simple_workload(1, 0.1), 10, 1);
  EXPECT_DEATH((void)run_scenario("bogus", config, trace), "unknown");
}

}  // namespace
}  // namespace wormsched::harness
