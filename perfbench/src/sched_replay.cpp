// sched_replay_1k: the `trace-gen` -> `replay` user path.
//
// A multi-tenant trace (1,024 flows, default elephant/mice split, 0.8
// flits/cycle into the single output over 100k cycles) is synthesized,
// encoded to the binary container and decoded back (set-up), then
// replayed through ERR by harness::run_scenario with drain on, followed by
// per-flow totals, the average relative fairness and the Theorem 3 check
// over sampled intervals (measured span).
//
// run_scenario is one opaque call, so a traced repetition attributes its
// time with two mirror runs after the measured span: the same scheduler
// over the same trace with no observers (core.*), and again with the
// harness's per-cycle activity snapshot timed cycle by cycle
// (metrics.activity_*).  harness.scenario_self_s is the remainder.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/packet.hpp"
#include "core/registry.hpp"
#include "core/scheduler.hpp"
#include "harness/scenario.hpp"
#include "metrics/activity.hpp"
#include "metrics/fairness.hpp"
#include "traffic/binary_trace.hpp"
#include "traffic/trace_synth.hpp"

namespace wsbench {

namespace {

using namespace wormsched;

struct ReplaySize {
  std::size_t flows;
  Cycle horizon;
  std::size_t fm_intervals;
};

ReplaySize replay_size(bool tiny) {
  if (tiny) return {128, 4'000, 200};
  return {1'024, 100'000, 200};
}

core::SchedulerParams replay_params(const traffic::Trace& trace) {
  // What `wormsched replay` configures.
  core::SchedulerParams params;
  params.num_flows = trace.num_flows;
  params.drr_quantum = trace.max_observed_length();
  return params;
}

/// Replays `trace` into a bare scheduler, the harness's service model
/// without its observers.  With `activity` set, also feeds the harness's
/// per-cycle activity snapshot and times only that loop into `spans`.
/// Returns flits served.
std::uint64_t mirror_replay(const traffic::Trace& trace, Cycle horizon,
                            metrics::ActivityTracker* activity,
                            Spans* spans) {
  auto scheduler = core::make_scheduler("err", replay_params(trace));
  std::size_t next = 0;
  PacketId::rep_type next_id = 0;
  std::uint64_t served = 0;
  double activity_s = 0.0;
  Cycle t = 0;
  for (;;) {
    while (next < trace.entries.size() && trace.entries[next].cycle == t) {
      const traffic::TraceEntry& e = trace.entries[next];
      scheduler->enqueue(t, core::Packet{.id = PacketId(next_id++),
                                         .flow = e.flow,
                                         .length = e.length,
                                         .arrival = t});
      ++next;
    }
    if (scheduler->pull_flit(t)) ++served;
    if (activity != nullptr) {
      const double start = now_s();
      for (std::size_t i = 0; i < trace.num_flows; ++i) {
        const FlowId flow(static_cast<FlowId::rep_type>(i));
        activity->record(t, flow, scheduler->queue_length(flow) > 0);
      }
      activity_s += now_s() - start;
    }
    ++t;
    if (t >= horizon && next >= trace.entries.size() && scheduler->idle())
      break;
  }
  if (activity != nullptr) {
    activity->finish(t);
    spans->add("metrics.activity_s", activity_s);
    spans->add("metrics.activity_records",
               static_cast<double>(t) * static_cast<double>(trace.num_flows));
  }
  return served;
}

}  // namespace

Sample run_sched_replay(const RunOptions& opt, Spans* spans) {
  const ReplaySize size = replay_size(opt.tiny);
  Sample s;

  // --- set-up: trace-gen (synthesize + encode), then replay's decode ---
  const double setup_start = now_s();
  traffic::SynthSpec spec;
  spec.num_flows = size.flows;
  spec.horizon = size.horizon;
  spec.load = 0.8;  // not 0.95: latency must settle across seeds (README.md)
  traffic::Trace synthesized;
  {
    ScopedSpan span(spans, "traffic.synth_s");
    synthesized = traffic::synthesize_trace(spec, opt.seed);
  }
  std::vector<std::uint8_t> bytes;
  {
    ScopedSpan span(spans, "traffic.encode_s");
    bytes = traffic::encode_binary_trace(synthesized);
  }
  traffic::Trace trace;
  {
    ScopedSpan span(spans, "traffic.decode_s");
    trace = traffic::decode_binary_trace(bytes);
  }
  s.setup_s = now_s() - setup_start;

  // --- measured span: replay, per-flow totals, fairness ---
  const double wall_start = now_s();
  const double cpu_start = cpu_s();
  const double sys_start = sys_s();
  harness::ScenarioConfig config;
  config.horizon = trace.entries.back().cycle + 1;
  config.drain = true;
  config.seed = opt.seed;
  config.sched.drr_quantum = trace.max_observed_length();
  std::optional<harness::ScenarioResult> result;
  {
    ScopedSpan span(spans, "harness.run_scenario_s");
    result.emplace(harness::run_scenario("err", config, trace));
  }

  Digest digest;
  Flits served = 0;
  {
    ScopedSpan span(spans, "bench.verify_s");
    for (std::size_t i = 0; i < trace.num_flows; ++i) {
      const Flits total =
          result->service_log.total(FlowId(static_cast<FlowId::rep_type>(i)));
      served += total;
      digest.add(static_cast<std::uint64_t>(total));
    }
    for (const Cycle c : result->service_starts) digest.add(c);
    digest.add(result->end_cycle);
  }

  double arf = 0.0;
  Flits worst_fm = 0;
  {
    ScopedSpan span(spans, "metrics.fm_s");
    Rng arf_rng(opt.seed);
    arf = metrics::average_relative_fairness(result->service_log,
                                             result->activity,
                                             result->end_cycle,
                                             size.fm_intervals, arf_rng);
    // Theorem 3 over sampled intervals: FM(t1, t2) < 3m for every pair of
    // flows active throughout.  Lengths are log-uniform, so round-scale
    // intervals (where many flows qualify) are sampled as often as long
    // ones.
    Rng fm_rng(opt.seed ^ 0x5F3A9C21u);
    const double log_end = std::log(static_cast<double>(result->end_cycle));
    for (std::size_t k = 0; k < size.fm_intervals; ++k) {
      const Cycle len = std::max<Cycle>(
          1, static_cast<Cycle>(std::exp(fm_rng.uniform_real() * log_end)));
      const Cycle a = fm_rng.uniform_u64(result->end_cycle - len + 1);
      const Cycle b = a + len;
      worst_fm = std::max(worst_fm,
                          metrics::fairness_measure(result->service_log,
                                                    result->activity, a, b));
    }
  }
  s.wall_s = now_s() - wall_start;
  s.cpu_s = cpu_s() - cpu_start;
  s.sys_s = sys_s() - sys_start;

  s.flit_hops = static_cast<double>(served);  // one output: 1 hop per flit
  s.sim.packets = static_cast<double>(result->delays.packets());
  s.sim.flits = static_cast<double>(trace.total_flits());
  s.sim.cycles = static_cast<double>(result->end_cycle);
  s.sim.latency_mean = result->delays.overall().mean();
  s.sim.latency_p99 = result->delays.quantile(0.99);
  s.sim.delivered_frac =
      static_cast<double>(served) / static_cast<double>(trace.total_flits());
  s.sim.fm_over_3m = static_cast<double>(worst_fm) /
                     (3.0 * static_cast<double>(result->max_served_packet));
  s.sim.arf_flits = arf;
  s.sim.digest = digest.hex();
  if (result->residual_backlog != 0)
    s.failures.push_back("replay left a residual backlog");

  if (spans != nullptr) {
    // Attribution mirrors, outside the measured span.
    const double core_start = now_s();
    const std::uint64_t core_flits =
        mirror_replay(trace, config.horizon, nullptr, nullptr);
    const double core_s = now_s() - core_start;
    spans->add("core.sched_s", core_s);
    spans->set("core.ns_per_flit",
               core_s * 1e9 / static_cast<double>(core_flits));
    metrics::ActivityTracker activity(trace.num_flows);
    const std::uint64_t mirror_flits =
        mirror_replay(trace, config.horizon, &activity, spans);
    if (core_flits != static_cast<std::uint64_t>(served) ||
        mirror_flits != core_flits)
      s.failures.push_back("scheduler mirror served a different flit count");
    spans->set("harness.scenario_self_s",
               spans->get("harness.run_scenario_s") - core_s -
                   spans->get("metrics.activity_s"));
    spans->set("traffic.trace_bytes", static_cast<double>(bytes.size()));
  }
  return s;
}

}  // namespace wsbench
