// Scenario runner: replays one arrival trace through one scheduler at one
// flit per cycle, collecting everything the paper's figures need.
//
// All figure benches and most integration tests are thin wrappers around
// run_scenario(): they build a WorkloadSpec, generate ONE trace, and replay
// it into each discipline under comparison so the only varying factor is
// the scheduling algorithm.  run_scenario() is the single-segment case of
// the resumable ScenarioRun (harness/checkpoint.hpp): there is one replay
// loop, whether or not a run is ever checkpointed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "core/registry.hpp"
#include "metrics/activity.hpp"
#include "metrics/delay.hpp"
#include "metrics/service_log.hpp"
#include "obs/trace_sink.hpp"
#include "traffic/workload.hpp"
#include "validate/violation.hpp"

namespace wormsched::harness {

struct ScenarioConfig {
  /// Cycles of simulation; injection additionally respects
  /// workload.inject_until.
  Cycle horizon = 1'000'000;
  /// After the horizon, keep serving until every queue drains (the Fig. 5
  /// methodology: "halt all injection ... and continue simulation until
  /// all the queues are empty").
  bool drain = false;
  std::uint64_t seed = 1;
  Bytes flit_bytes = 8;
  core::SchedulerParams sched;  // num_flows is filled in by the runner
  /// Per-flow weights (empty = all 1).
  std::vector<double> weights;
  /// Attach the runtime invariant auditor (src/validate) to the run.
  /// Effective for ERR schedulers (the auditor subscribes to ErrPolicy's
  /// opportunity stream); a no-op for other disciplines.
  bool audit = false;
  /// Optional external violation sink.  When null and audit is set, the
  /// runner uses a private log and only the counts survive in the result
  /// (Debug builds abort on the first violation either way).
  validate::AuditLog* audit_log = nullptr;
  /// Optional structured event sink (not owned).  Records packet
  /// enqueue/dequeue (with the serving flow's ERR allowance/SC at the
  /// decision instant), every ERR service opportunity, and round
  /// boundaries.  nullptr (the default) costs one pointer test per site.
  obs::TraceSink* trace = nullptr;
};

/// Everything measured during one run.
struct ScenarioResult {
  ScenarioResult(std::size_t num_flows, Bytes flit_bytes);

  std::string scheduler_name;
  Cycle end_cycle = 0;
  metrics::ServiceLog service_log;
  metrics::ActivityTracker activity;
  metrics::DelayStats delays;
  /// Cycles at which a packet's head flit was transmitted: a superset-free
  /// sample of the paper's T_s (service boundary instants), used by the
  /// Theorem 3 property tests.
  std::vector<Cycle> service_starts;
  /// Largest packet actually *served* — the paper's m (Def. 2).
  Flits max_served_packet = 0;
  /// Flits left unserved at the end (nonzero in overloaded, non-drained
  /// runs).
  Flits residual_backlog = 0;
  /// Filled when ScenarioConfig::audit ran: opportunities audited and
  /// invariant violations found (0 on a clean run).
  std::uint64_t audit_opportunities = 0;
  std::uint64_t audit_violations = 0;

  [[nodiscard]] std::size_t num_flows() const {
    return service_log.num_flows();
  }
};

/// Runs `trace` through the named scheduler (a ScenarioRun driven to
/// completion; the trace is borrowed, not copied).  The trace must have
/// been generated for the same number of flows.
[[nodiscard]] ScenarioResult run_scenario(std::string_view scheduler_name,
                                          const ScenarioConfig& config,
                                          const traffic::Trace& trace);

/// Convenience: generates the trace from `workload` with config.seed.
[[nodiscard]] ScenarioResult run_scenario(std::string_view scheduler_name,
                                          const ScenarioConfig& config,
                                          const traffic::WorkloadSpec& workload);

}  // namespace wormsched::harness
