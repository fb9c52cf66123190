// Standalone-scheduler replay results pinned against history.
//
// Every run replays a trace through the scenario harness and hashes the
// measured result — per-flow served flits and bytes, the service-start
// instants, the end cycle, the bit patterns of the delay mean, sum, max
// and p99, the largest served packet, the residual backlog and the audit
// counts — to the committed golden for its name in
// tests/data/scenario_digests.txt.  The configs cover every registered
// scheduler with and without drain on one weighted, overloaded workload,
// ERR audited, ERR traced (the chrome JSON bytes are hashed too), a
// faulted multi-seed sweep, and resumable runs of the restore corpus spec
// both straight and split across a checkpoint; the straight and the
// split run of a spec must hash to the same golden.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "../wormhole/golden_digest.hpp"
#include "common/snapshot.hpp"
#include "core/registry.hpp"
#include "harness/checkpoint.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_sink.hpp"
#include "traffic/workload.hpp"
#include "validate/faults.hpp"

namespace wormsched::harness {
namespace {

using wormhole::test::Fnv1a64;

std::uint64_t digest(const ScenarioResult& r) {
  Fnv1a64 h;
  h.u64(r.num_flows());
  for (std::size_t i = 0; i < r.num_flows(); ++i) {
    const FlowId flow(static_cast<FlowId::rep_type>(i));
    h.u64(static_cast<std::uint64_t>(r.service_log.total(flow)));
    h.u64(static_cast<std::uint64_t>(r.service_log.total_bytes(flow)));
  }
  h.u64(r.service_starts.size());
  for (const Cycle c : r.service_starts) h.u64(c);
  h.u64(r.end_cycle);
  h.u64(r.delays.packets());
  h.f64(r.delays.overall().mean());
  h.f64(r.delays.overall().sum());
  h.f64(r.delays.overall().max());
  h.f64(r.delays.quantile(0.99));
  h.u64(static_cast<std::uint64_t>(r.max_served_packet));
  h.u64(static_cast<std::uint64_t>(r.residual_backlog));
  h.u64(r.audit_opportunities);
  h.u64(r.audit_violations);
  return h.value();
}

/// Matches `value` against golden line `name`; a mismatch prints the line
/// to paste.
void expect_golden(const std::string& name, std::uint64_t value,
                   const std::string& variant = "") {
  static const auto goldens =
      wormhole::test::load_goldens(WS_SCENARIO_DIGESTS);
  std::string golden;
  if (const auto it = goldens.find(name);
      it != goldens.end() && !it->second.empty())
    golden = it->second.front();
  const std::string produced = wormhole::test::hex(value);
  EXPECT_EQ(produced, golden) << variant << " produced, for line:\n"
                              << name << " " << produced;
}

/// Four weighted flows offered ~1.3 flits/cycle up to the horizon, so the
/// no-drain runs end with a backlog and the drain runs serve a long tail.
traffic::WorkloadSpec weighted_workload() {
  traffic::WorkloadSpec spec;
  traffic::FlowSpec f;
  f.arrival = traffic::ArrivalSpec::bernoulli(0.08);
  f.length = traffic::LengthSpec::uniform(1, 8);
  spec.flows.push_back(f);
  f.arrival = traffic::ArrivalSpec::bernoulli(0.03);
  f.length = traffic::LengthSpec::uniform(1, 16);
  spec.flows.push_back(f);
  f.arrival = traffic::ArrivalSpec::poisson(0.02);
  f.length = traffic::LengthSpec::truncated_exponential(0.1, 1, 32);
  spec.flows.push_back(f);
  f.arrival = traffic::ArrivalSpec::bernoulli(0.15);
  f.length = traffic::LengthSpec::constant(3);
  spec.flows.push_back(f);
  spec.inject_until = 3000;
  return spec;
}

ScenarioConfig weighted_config(bool drain) {
  ScenarioConfig config;
  config.horizon = 3000;
  config.drain = drain;
  config.seed = 11;
  config.sched.drr_quantum = 32;
  config.weights = {1.0, 2.5, 1.5, 1.0};
  return config;
}

TEST(ScenarioDigest, EverySchedulerDrainAndNoDrain) {
  const traffic::WorkloadSpec workload = weighted_workload();
  for (const bool drain : {true, false}) {
    const ScenarioConfig config = weighted_config(drain);
    const traffic::Trace trace =
        traffic::generate_trace(workload, config.horizon, config.seed);
    for (const std::string_view name : core::scheduler_names()) {
      const ScenarioResult result = run_scenario(name, config, trace);
      expect_golden(std::string(name) + (drain ? ".drain" : ".nodrain"),
                    digest(result));
    }
  }
}

TEST(ScenarioDigest, ErrAudited) {
  ScenarioConfig config = weighted_config(true);
  config.audit = true;
  const ScenarioResult result =
      run_scenario("err", config, weighted_workload());
  EXPECT_GT(result.audit_opportunities, 0u);
  EXPECT_EQ(result.audit_violations, 0u);
  expect_golden("err.audited", digest(result));
}

TEST(ScenarioDigest, ErrTracedHashesChromeJson) {
  ScenarioConfig config = weighted_config(true);
  config.audit = true;
  obs::TraceSink sink;
  config.trace = &sink;
  const ScenarioResult result =
      run_scenario("err", config, weighted_workload());
  std::ostringstream json;
  obs::write_chrome_trace(json, sink);
  Fnv1a64 h;
  h.u64(digest(result));
  for (const char c : json.str()) h.u64(static_cast<unsigned char>(c));
  expect_golden("err.traced", h.value());
}

TEST(ScenarioDigest, FaultedSweep) {
  SweepOptions options;
  options.base_seed = 5;
  options.seeds = 3;
  options.audit = true;
  options.faults.enabled = true;
  options.faults.seed = 23;
  options.faults.churn_rate = 0.05;
  options.faults.burst_rate = 0.05;
  options.faults.trace_jitter_max = 8;
  Fnv1a64 h;
  const SweepResult sweep = sweep_scenario(
      "err", weighted_config(true), weighted_workload(), options,
      [&h](const ScenarioResult& r, SweepResult& out) {
        h.u64(digest(r));
        out.add("end_cycle", static_cast<double>(r.end_cycle));
      });
  EXPECT_EQ(sweep.stat("end_cycle").count(), 3u);
  expect_golden("sweep.faulted", h.value());
}

/// The restore-differential corpus spec (restore_differential_test.cpp).
ScenarioSpec corpus_spec(std::uint64_t seed, bool faulted) {
  ScenarioSpec spec;
  spec.scheduler = "err";
  spec.workload_text =
      "bern:0.02:u1-8:2.5*2;bern:0.03:u1-16;bern:0.01:e0.2-1-64";
  spec.config.horizon = 3000;
  spec.config.drain = true;
  spec.config.seed = seed;
  if (faulted) {
    spec.faults.enabled = true;
    spec.faults.seed = seed + 17;
    spec.faults.churn_rate = 0.05;
    spec.faults.burst_rate = 0.05;
    spec.faults.trace_jitter_max = 8;
  }
  return spec;
}

void expect_corpus_pinned(const std::string& name, const ScenarioSpec& spec) {
  {
    ScenarioRun run(spec);
    run.run_to_completion();
    expect_golden(name, digest(run.finish()), "straight");
  }
  SnapshotFile file;
  {
    ScenarioRun run(spec);
    run.advance_to(1234);
    file = run.make_snapshot_file();
  }
  ScenarioRun resumed(spec, file);
  resumed.run_to_completion();
  expect_golden(name, digest(resumed.finish()), "split at 1234");
}

TEST(ScenarioDigest, ScenarioRunCorpusStraightAndSplit) {
  expect_corpus_pinned("scenario_run.weighted", corpus_spec(100, false));
  expect_corpus_pinned("scenario_run.faulted", corpus_spec(200, true));
}

}  // namespace
}  // namespace wormsched::harness
