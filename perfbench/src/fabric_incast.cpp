// fabric_mesh16_incast_t2: the `trace-gen --scenario incast` ->
// `network --trace-in` path, audited, on the sharded tick.
//
// Set-up synthesizes a 100k-flow incast trace (64-flow bursts every 512
// cycles over ~15 flits/cycle aggregate), encodes and decodes it, builds
// a mesh16x16 fabric ticked by 2 threads (2 shard domains), a
// TraceTrafficSource and the auditors.  The measured span replays the
// trace to a drained fabric through sim::Engine, exactly as the CLI's
// --trace-in branch does, with the incremental NetworkAuditor and one
// ErrAuditor per ERR output arbiter attached (the CLI branch drops
// --audit, so the benchmark wires them the way NetworkRun does).
//
// Traced repetitions wrap the source and the network in forwarding
// components and the NetworkAuditor in a forwarding observer, so the
// engine's own time, the trace injection, the tick and the audit are
// each timed at their call boundary.  The ErrAuditors run inside the
// arbiters (on the shard lanes) and stay inside wormhole.tick_s.
#include <memory>
#include <optional>
#include <vector>

#include "common.hpp"
#include "fabric_common.hpp"
#include "sim/engine.hpp"
#include "traffic/binary_trace.hpp"
#include "traffic/trace_synth.hpp"
#include "validate/network_auditor.hpp"
#include "wormhole/patterns.hpp"

namespace wsbench {

namespace {

using namespace wormsched;

/// Forwards tick/idle to `inner`, accumulating the tick's host time.
class TimedComponent final : public sim::Component {
 public:
  TimedComponent(sim::Component& inner, double& seconds)
      : inner_(inner), seconds_(seconds) {}
  void tick(Cycle now) override {
    const double start = now_s();
    inner_.tick(now);
    seconds_ += now_s() - start;
  }
  [[nodiscard]] bool idle() const override { return inner_.idle(); }

 private:
  sim::Component& inner_;
  double& seconds_;
};

/// Forwards cycle-end notifications to `inner`, accumulating their time.
class TimedObserver final : public wormhole::NetworkObserver {
 public:
  TimedObserver(wormhole::NetworkObserver& inner, double& seconds)
      : inner_(inner), seconds_(seconds) {}
  void on_cycle_end(Cycle now, const wormhole::Network& net,
                    const wormhole::CycleDelta& delta) override {
    const double start = now_s();
    inner_.on_cycle_end(now, net, delta);
    seconds_ += now_s() - start;
  }
  [[nodiscard]] bool wants_delta() const override {
    return inner_.wants_delta();
  }

 private:
  wormhole::NetworkObserver& inner_;
  double& seconds_;
};

}  // namespace

Sample run_fabric_incast(const RunOptions& opt, Spans* spans) {
  Sample s;

  // --- set-up: trace-gen, decode, fabric + source + auditors ---
  const double setup_start = now_s();
  traffic::SynthSpec spec;
  spec.num_flows = opt.tiny ? 5'000 : 100'000;
  spec.horizon = opt.tiny ? 2'000 : 16'000;
  spec.load = opt.tiny ? 3.0 : 15.0;
  spec.incast_every = 512;  // the trace-gen `--scenario incast` preset
  spec.incast_fanin = 64;
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

  wormhole::NetworkConfig config;
  const std::uint32_t side = opt.tiny ? 8 : 16;
  config.topo = wormhole::TopologySpec::mesh(side, side);
  config.router.num_vcs = 2;
  config.router.buffer_depth = 8;
  config.router.arbiter = "err-cycles";
  config.router.flow_control = wormhole::FlowControl::kCredit;
  config.threads = 2;
  config.shards = 2;
  std::optional<wormhole::Network> net;
  std::optional<wormhole::TraceTrafficSource> source;
  validate::AuditLog log(validate::AuditLog::Mode::kCount);
  std::optional<validate::NetworkAuditor> auditor;
  std::vector<std::unique_ptr<validate::ErrAuditor>> err_auditors;
  {
    ScopedSpan span(spans, "wormhole.construct_s");
    net.emplace(config);
    wormhole::TraceTrafficSource::Config src;
    src.trace = &trace;
    src.pattern.kind = wormhole::PatternSpec::Kind::kUniform;
    src.seed = opt.seed;
    source.emplace(*net, src);
    auditor.emplace(validate::NetworkAuditorConfig{}, log);
    err_auditors = attach_err_auditors(*net, log);
  }
  s.setup_s = now_s() - setup_start;

  // Traced wiring: forwarding wrappers at each module boundary.
  double inject_s = 0.0;
  double tick_s = 0.0;
  double audit_s = 0.0;
  LiveSampler live;
  TimedComponent timed_source(*source, inject_s);
  TimedComponent timed_net(*net, tick_s);
  TimedObserver timed_auditor(*auditor, audit_s);
  sim::Engine engine;
  if (spans != nullptr) {
    engine.add_component(timed_source);
    engine.add_component(timed_net);
    net->attach_observer(&timed_auditor);
    net->attach_observer(&live);
  } else {
    engine.add_component(*source);
    engine.add_component(*net);
    net->attach_observer(&*auditor);
  }

  // --- measured span: replay to a drained fabric, audit, verify ---
  const double wall_start = now_s();
  const double cpu_start = cpu_s();
  const double sys_start = sys_s();
  // The CLI's drain bound: injection window times the drain factor.
  const Cycle cap = source->inject_until() * 50 + 1000;
  double engine_s = 0.0;
  Cycle end = 0;
  {
    const double start = now_s();
    end = engine.run_until_idle(cap);
    engine_s = now_s() - start;
  }
  double audit_finish_s = 0.0;
  {
    const double start = now_s();
    auditor->finish(end, *net);
    audit_finish_s = now_s() - start;
  }
  Digest digest;
  double flit_hops = 0.0;
  {
    ScopedSpan span(spans, "bench.verify_s");
    fold_delivered(net->topology(), net->delivered(), flit_hops, digest);
  }
  s.wall_s = now_s() - wall_start;
  s.cpu_s = cpu_s() - cpu_start;
  s.sys_s = sys_s() - sys_start;

  s.flit_hops = flit_hops;
  s.sim.packets = static_cast<double>(net->delivered_packets());
  s.sim.flits = static_cast<double>(trace.total_flits());
  s.sim.cycles = static_cast<double>(end);
  s.sim.latency_mean = net->latency_overall().mean();
  s.sim.latency_p99 = net->latency_quantiles().quantile(0.99);
  s.sim.delivered_frac = static_cast<double>(net->delivered_flits()) /
                         static_cast<double>(trace.total_flits());
  s.sim.violations = static_cast<double>(log.count());
  s.sim.fm_over_3m = worst_fm_over_3m(err_auditors);
  s.sim.digest = digest.hex();
  if (source->generated() != trace.entries.size())
    s.failures.push_back("trace source did not inject every entry");
  if (auditor->checks_run() == 0)
    s.failures.push_back("network auditor ran no checks");

  if (spans != nullptr) {
    spans->set("traffic.trace_bytes", static_cast<double>(bytes.size()));
    spans->set("traffic.inject_s", inject_s);
    spans->set("wormhole.tick_s", tick_s - audit_s);
    spans->set("validate.audit_s", audit_s + audit_finish_s);
    spans->set("sim.engine_self_s", engine_s - inject_s - tick_s);
    spans->set("wormhole.flit_hops", flit_hops);
    spans->set("wormhole.live_router_frac",
               live.fraction(net->topology().num_nodes()));
    spans->set("wormhole.lanes", net->tick_lanes());
    spans->set("validate.audit_checks",
               static_cast<double>(auditor->checks_run()));
    spans->set("validate.violations", static_cast<double>(log.count()));
  }
  return s;
}

}  // namespace wsbench
