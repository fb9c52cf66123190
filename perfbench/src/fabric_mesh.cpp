// fabric_mesh32_uniform: the synthetic `network` path with one
// checkpoint save and restore.
//
// mesh32x32, credit flow control, 2 VCs x 8 flits, ERR arbiters, uniform
// Bernoulli traffic at 0.01 packets/node/cycle (mean packet 8.5 flits).
// Set-up constructs the harness::NetworkRun; the measured span runs it to
// mid-injection, saves a checkpoint file, restores it into a fresh
// NetworkRun (the `--checkpoint` / `--restore` user path) and runs that
// to completion.  The measured runs tick at 2 threads: the serial tick's
// host time swung too much between runs on a shared host to hold the
// benchmark's bounds (README.md).  The serial kernel runs in the reference
// (reference_fabric_mesh): the straight, never-checkpointed run every
// restored repetition must reproduce bit for bit.
//
// Traced repetitions attach a cycle-end observer that samples the active
// set; the library's PerfCounters, which force the serial kernel, are
// attached to the reference run instead, for the router-stage shares.
// wormhole.tick_s is the time inside NetworkRun::advance_to, so on this
// workload it includes the Bernoulli source's tick and the engine's
// dispatch.
#include <filesystem>
#include <optional>
#include <string>

#include <unistd.h>

#include "common.hpp"
#include "common/snapshot.hpp"
#include "fabric_common.hpp"
#include "harness/checkpoint.hpp"
#include "metrics/perf_counters.hpp"

namespace wsbench {

namespace {

using namespace wormsched;

harness::NetworkScenarioConfig mesh_point(const RunOptions& opt,
                                          std::uint32_t threads,
                                          metrics::PerfCounters* perf) {
  harness::NetworkScenarioConfig point;
  const std::uint32_t side = opt.tiny ? 8 : 32;
  point.network.topo = wormhole::TopologySpec::mesh(side, side);
  point.network.router.num_vcs = 2;
  point.network.router.buffer_depth = 8;
  point.network.router.arbiter = "err-cycles";
  point.network.router.flow_control = wormhole::FlowControl::kCredit;
  point.network.threads = threads;
  point.network.shards = threads;
  point.traffic.packets_per_node_per_cycle = 0.01;
  point.traffic.pattern.kind = wormhole::PatternSpec::Kind::kUniform;
  point.traffic.inject_until = opt.tiny ? 600 : 2'000;
  point.perf_counters = perf;
  return point;
}

SimStats stats_of(const wormhole::Network& net,
                  const harness::NetworkScenarioResult& result,
                  const std::string& digest) {
  SimStats sim;
  sim.packets = static_cast<double>(result.delivered_packets);
  sim.flits = static_cast<double>(net.injected_flits());
  sim.cycles = static_cast<double>(result.end_cycle);
  sim.latency_mean = result.latency.mean();
  sim.latency_p99 = result.p99_latency;
  sim.delivered_frac = static_cast<double>(net.delivered_flits()) /
                       static_cast<double>(net.injected_flits());
  sim.digest = digest;
  return sim;
}

}  // namespace

Sample run_fabric_mesh(const RunOptions& opt, Spans* spans) {
  Sample s;
  const harness::NetworkScenarioConfig point = mesh_point(opt, 2, nullptr);
  const Cycle checkpoint_at = point.traffic.inject_until / 2;
  const std::string path = opt.scratch_dir + "/mesh-" +
                           std::to_string(::getpid()) + ".wsnp";

  // --- set-up: fabric construction ---
  const double setup_start = now_s();
  std::optional<harness::NetworkRun> first;
  {
    ScopedSpan span(spans, "wormhole.construct_s");
    first.emplace(point, opt.seed);
  }
  s.setup_s = now_s() - setup_start;

  // --- measured span: run, checkpoint, restore, run to completion ---
  LiveSampler live;
  const double wall_start = now_s();
  const double cpu_start = cpu_s();
  const double sys_start = sys_s();
  if (spans != nullptr) first->network().attach_observer(&live);
  {
    ScopedSpan span(spans, "wormhole.tick_s");
    first->advance_to(checkpoint_at);
  }
  {
    ScopedSpan span(spans, "harness.checkpoint_save_s");
    first->save_checkpoint(path);
  }
  std::optional<harness::NetworkRun> restored;
  {
    ScopedSpan span(spans, "harness.checkpoint_restore_s");
    restored.emplace(point, read_snapshot_file(path));
  }
  if (spans != nullptr) restored->network().attach_observer(&live);
  {
    ScopedSpan span(spans, "wormhole.tick_s");
    restored->run_to_completion();
  }
  Digest digest;
  double flit_hops = 0.0;
  harness::NetworkScenarioResult result;
  {
    ScopedSpan span(spans, "bench.verify_s");
    result = restored->finish();
    const wormhole::Topology& topo = restored->network().topology();
    fold_delivered(topo, first->network().delivered(), flit_hops, digest);
    fold_delivered(topo, restored->network().delivered(), flit_hops, digest);
  }
  s.wall_s = now_s() - wall_start;
  s.cpu_s = cpu_s() - cpu_start;
  s.sys_s = sys_s() - sys_start;

  s.flit_hops = flit_hops;
  s.sim = stats_of(restored->network(), result, digest.hex());
  if (!restored->restored() || first->now() != checkpoint_at)
    s.failures.push_back("checkpoint was not taken at mid-injection");

  if (spans != nullptr) {
    spans->set("harness.checkpoint_bytes",
               static_cast<double>(std::filesystem::file_size(path)));
    spans->set("wormhole.flit_hops", flit_hops);
    spans->set("wormhole.live_router_frac",
               live.fraction(restored->network().topology().num_nodes()));
    spans->set("wormhole.lanes", restored->network().tick_lanes());
  }
  std::filesystem::remove(path);
  return s;
}

SimStats reference_fabric_mesh(const RunOptions& opt, Spans* spans) {
  metrics::PerfCounters perf;
  harness::NetworkRun run(
      mesh_point(opt, 1, spans != nullptr ? &perf : nullptr), opt.seed);
  // Theorem 3 is checked here, on the uninterrupted run, so the measured
  // repetitions stay unaudited.
  validate::AuditLog log(validate::AuditLog::Mode::kCount);
  const auto auditors = attach_err_auditors(run.network(), log);
  run.run_to_completion();
  const harness::NetworkScenarioResult result = run.finish();
  Digest digest;
  double flit_hops = 0.0;
  fold_delivered(run.network().topology(), run.network().delivered(),
                 flit_hops, digest);
  SimStats sim = stats_of(run.network(), result, digest.hex());
  sim.fm_over_3m = worst_fm_over_3m(auditors);
  sim.violations = static_cast<double>(log.count());
  if (spans != nullptr) {
    // Router-stage shares of the serial tick (observer excluded).
    constexpr metrics::Stage kStages[] = {
        metrics::Stage::kWireDelivery, metrics::Stage::kNicInject,
        metrics::Stage::kRouteCompute, metrics::Stage::kVcAlloc,
        metrics::Stage::kSwitchTraversal};
    double total = 0.0;
    for (const metrics::Stage st : kStages)
      total += static_cast<double>(perf.total(st).ticks);
    for (const metrics::Stage st : kStages) {
      spans->set(std::string("wormhole.stage.") + metrics::stage_name(st) +
                     "_share",
                 total > 0.0 ? static_cast<double>(perf.total(st).ticks) / total
                             : 0.0);
    }
  }
  return sim;
}

}  // namespace wsbench
