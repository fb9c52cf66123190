#include "harness/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "core/err.hpp"
#include "core/packet.hpp"
#include "harness/workload_parse.hpp"
#include "metrics/delay.hpp"
#include "obs/manifest.hpp"
#include "wormhole/arbiter.hpp"

namespace wormsched::harness {

namespace {

/// --- Config (de)serialization helpers ------------------------------------
///
/// The generative configuration travels inside the checkpoint so a restore
/// needs nothing beyond the file (and the run-local wiring).  Enum values
/// are range-checked on load: a corrupted-but-CRC-valid file must fail
/// with SnapshotError, never reach a switch default.

void save_fault_spec(SnapshotWriter& w, const validate::FaultSpec& s) {
  w.b(s.enabled);
  w.u64(s.seed);
  w.u64(s.window);
  w.f64(s.link_stall_rate);
  w.u64(s.link_stall_cycles);
  w.f64(s.credit_stall_rate);
  w.u64(s.credit_stall_cycles);
  w.f64(s.churn_rate);
  w.f64(s.burst_rate);
  w.f64(s.burst_multiplier);
  w.u32(s.num_nodes);
  w.u64(s.trace_jitter_max);
}

validate::FaultSpec load_fault_spec(SnapshotReader& r) {
  validate::FaultSpec s;
  s.enabled = r.b();
  s.seed = r.u64();
  s.window = r.u64();
  s.link_stall_rate = r.f64();
  s.link_stall_cycles = r.u64();
  s.credit_stall_rate = r.f64();
  s.credit_stall_cycles = r.u64();
  s.churn_rate = r.f64();
  s.burst_rate = r.f64();
  s.burst_multiplier = r.f64();
  s.num_nodes = r.u32();
  s.trace_jitter_max = r.u64();
  if (s.enabled && s.window == 0)
    throw SnapshotError("checkpoint fault spec has a zero epoch window");
  return s;
}

void save_length_spec(SnapshotWriter& w, const traffic::LengthSpec& s) {
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.i64(s.lo);
  w.i64(s.hi);
  w.f64(s.lambda);
  w.f64(s.bimodal_small_prob);
}

traffic::LengthSpec load_length_spec(SnapshotReader& r) {
  traffic::LengthSpec s;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(traffic::LengthSpec::Kind::kBimodal))
    throw SnapshotError("checkpoint length law kind out of range");
  s.kind = static_cast<traffic::LengthSpec::Kind>(kind);
  s.lo = r.i64();
  s.hi = r.i64();
  s.lambda = r.f64();
  s.bimodal_small_prob = r.f64();
  return s;
}

void save_traffic_config(SnapshotWriter& w,
                         const wormhole::NetworkTrafficSource::Config& c) {
  w.f64(c.packets_per_node_per_cycle);
  save_length_spec(w, c.lengths);
  w.u8(static_cast<std::uint8_t>(c.pattern.kind));
  w.f64(c.pattern.hotspot_fraction);
  w.u32(c.pattern.hotspot.value());
  w.u64(c.inject_until);
  w.u64(c.seed);
}

wormhole::NetworkTrafficSource::Config load_traffic_config(SnapshotReader& r) {
  wormhole::NetworkTrafficSource::Config c;
  c.packets_per_node_per_cycle = r.f64();
  c.lengths = load_length_spec(r);
  const std::uint8_t pattern = r.u8();
  if (pattern >
      static_cast<std::uint8_t>(wormhole::PatternSpec::Kind::kNeighbor))
    throw SnapshotError("checkpoint traffic pattern kind out of range");
  c.pattern.kind = static_cast<wormhole::PatternSpec::Kind>(pattern);
  c.pattern.hotspot_fraction = r.f64();
  c.pattern.hotspot = NodeId(r.u32());
  c.inject_until = r.u64();
  if (c.inject_until >= kCycleMax)
    throw SnapshotError("checkpoint injection window is unbounded");
  c.seed = r.u64();
  return c;
}

std::string manifest_to_json(const obs::RunManifest& manifest) {
  std::ostringstream os;
  manifest.write(os);
  return os.str();
}

}  // namespace

CheckpointProvenance read_checkpoint_provenance(const SnapshotFile& file) {
  if (file.version != kSnapshotFormatVersion)
    throw SnapshotError("unsupported snapshot format version " +
                        std::to_string(file.version));
  SnapshotReader r(file.payload);
  r.enter_section(kCkptMetaTag);
  CheckpointProvenance prov;
  prov.kind = r.str();
  prov.original_seed = r.u64();
  prov.saved_git_sha = r.str();
  prov.restore_count = r.u32();
  prov.saved_cycle = r.u64();
  r.leave_section();
  if (prov.kind != "network" && prov.kind != "scenario")
    throw SnapshotError("checkpoint kind \"" + prov.kind +
                        "\" is not a known run kind");
  return prov;
}

SnapshotFile load_checkpoint_or_exit(const std::string& path) {
  try {
    return read_snapshot_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wormsched: %s: %s\n", path.c_str(), e.what());
    std::exit(2);
  }
}

/// --- NetworkRun -----------------------------------------------------------

NetworkRun::NetworkRun(const NetworkScenarioConfig& config, std::uint64_t seed)
    : config_(config), original_seed_(seed) {
  WS_CHECK_MSG(config_.traffic.inject_until < kCycleMax,
               "network run needs a finite injection window");
  if (config_.faults.enabled) {
    // An independent fault schedule per run seed, sized to the topology.
    config_.faults.seed += seed;
    config_.faults.num_nodes = config_.network.topo.num_nodes();
  }
  config_.traffic.seed = seed;
  build();
  wire_observers();
}

NetworkRun::NetworkRun(const NetworkScenarioConfig& config,
                       const SnapshotFile& file)
    : config_(config),
      engine_(read_checkpoint_provenance(file).saved_cycle) {
  const CheckpointProvenance prov = read_checkpoint_provenance(file);
  if (prov.kind != "network")
    throw SnapshotError("expected a network checkpoint, found kind \"" +
                        prov.kind + "\"");
  original_seed_ = prov.original_seed;
  restore_count_ = prov.restore_count + 1;
  restored_ = true;
  trace_provenance_.restored = true;
  trace_provenance_.restored_from_sha = prov.saved_git_sha;
  trace_provenance_.original_seed = prov.original_seed;
  trace_provenance_.restore_cycle = prov.saved_cycle;
  end_cycle_ = prov.saved_cycle;

  SnapshotReader r(file.payload);
  r.enter_section(kCkptMetaTag);
  r.leave_section();  // parsed above
  r.enter_section(kCkptNetConfigTag);
  config_.drain_factor = r.u64();
  config_.traffic = load_traffic_config(r);
  config_.faults = load_fault_spec(r);
  r.leave_section();
  build();
  wire_observers();
  r.enter_section(kCkptNetworkTag);
  net_->restore_state(r);
  r.leave_section();
  r.enter_section(kCkptSourceTag);
  source_->restore_state(r);
  r.leave_section();
  // Trailing sections (e.g. SOAK) belong to the caller; leave them unread.
}

NetworkRun::~NetworkRun() = default;

void NetworkRun::build() {
  wormhole::NetworkConfig net_config = config_.network;
  if (config_.faults.enabled) {
    faults_.emplace(config_.faults);
    net_config.faults = &*faults_;
  }
  net_ = std::make_unique<wormhole::Network>(net_config);
  if (config_.perf_counters != nullptr)
    net_->set_perf_counters(config_.perf_counters);
  if (config_.trace.enabled()) {
    obs::TraceSink::Options sink_options;
    sink_options.capacity = config_.trace.capacity;
    sink_options.mask = config_.trace.mask;
    trace_sink_.emplace(sink_options);
    net_->set_trace_sink(&*trace_sink_);
  }
  wormhole::NetworkTrafficSource::Config traffic = config_.traffic;
  traffic.faults = net_config.faults;
  source_ = std::make_unique<wormhole::NetworkTrafficSource>(*net_, traffic);
  audit_log_ =
      config_.audit_log != nullptr ? config_.audit_log : &private_log_;
  engine_.add_component(*source_);
  engine_.add_component(*net_);
}

void NetworkRun::wire_observers() {
  obs::TraceSink* sink = trace_sink_ ? &*trace_sink_ : nullptr;

  // Auditors: the fabric auditor sees every cycle, and each ERR output
  // arbiter streams its opportunities into its own paper-bounds auditor;
  // all of them share one violation log.  Tracing subscribes to the same
  // single-slot opportunity stream, so when both are on one combined
  // listener per arbiter feeds auditor then sink.  Both auditors
  // tolerate joining mid-stream (they baseline off the first observed
  // state), which is what makes attaching them to a restored fabric safe.
  const bool trace_opportunities =
      sink != nullptr && sink->wants(obs::EventKind::kOpportunity);
  if (config_.audit || trace_opportunities) {
    if (config_.audit) {
      net_auditor_.emplace(config_.audit_config, *audit_log_);
      net_->attach_observer(&*net_auditor_);
    }
    const std::uint32_t nodes = net_->topology().num_nodes();
    const std::uint32_t vcs = config_.network.router.num_vcs;
    const std::size_t requesters =
        static_cast<std::size_t>(wormhole::kNumDirections) * vcs;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      for (std::uint32_t d = 0; d < wormhole::kNumDirections; ++d) {
        for (std::uint32_t cls = 0; cls < vcs; ++cls) {
          auto* err = dynamic_cast<wormhole::ErrArbiter*>(
              &net_->router(NodeId(n)).arbiter(
                  static_cast<wormhole::Direction>(d), cls));
          if (err == nullptr) continue;
          validate::ErrAuditor* audit_ptr = nullptr;
          if (config_.audit && config_.audit_err) {
            auto auditor = std::make_unique<validate::ErrAuditor>(
                requesters, validate::ErrAuditorConfig{}, *audit_log_);
            audit_ptr = auditor.get();
            err_auditors_.push_back(std::move(auditor));
          }
          if (trace_opportunities) {
            const std::uint32_t unit = d * vcs + cls;
            err->policy().set_opportunity_listener(
                [sink, audit_ptr, n, unit](const core::ErrOpportunity& op) {
                  if (audit_ptr != nullptr) audit_ptr->on_opportunity(op);
                  sink->record(obs::TraceEvent::opportunity(
                      sink->now(), op.flow.value(), op.round, op.allowance,
                      op.surplus_count, n, unit));
                });
          } else if (audit_ptr != nullptr) {
            audit_ptr->attach(err->policy());
          }
        }
      }
    }
  }

  // A violation enters the trace ring and — once per run — dumps the
  // event window around it while the evidence is still in the ring.  A
  // restored run's dump carries the snapshot provenance (saving build's
  // SHA, original seed, restore cycle) so the exact run can be rebuilt.
  if (sink != nullptr) {
    audit_log_->set_on_report([this, sink](const validate::Violation& v) {
      sink->record(obs::TraceEvent::violation(
          sink->now(), sink->note(v.check + ": " + v.detail)));
      if (!violation_window_dumped_ && !config_.trace.chrome_path.empty()) {
        violation_window_dumped_ = true;
        obs::write_chrome_trace_file(
            config_.trace.chrome_path + ".violation.json", *sink,
            restored_ ? &trace_provenance_ : nullptr);
      }
    });
  }
}

bool NetworkRun::done() const {
  const Cycle inject_end = config_.traffic.inject_until;
  if (engine_.now() < inject_end) return false;
  if (engine_.now() >= inject_end * config_.drain_factor) return true;
  return source_->idle() && net_->idle() && engine_.pending_events() == 0;
}

void NetworkRun::advance_to(Cycle target) {
  const Cycle inject_end = config_.traffic.inject_until;
  const Cycle drain_cap = inject_end * config_.drain_factor;
  if (engine_.now() < inject_end)
    engine_.run_until(std::min(target, inject_end));
  if (engine_.now() >= inject_end)
    end_cycle_ = engine_.run_until_idle(std::min(target, drain_cap));
}

void NetworkRun::run_to_completion() { advance_to(kCycleMax); }

std::vector<std::uint8_t> NetworkRun::checkpoint_payload(
    const ExtraSections& extra) const {
  SnapshotWriter w;
  w.begin_section(kCkptMetaTag);
  w.str("network");
  w.u64(original_seed_);
  w.str(obs::current_git_sha());
  w.u32(restore_count_);
  w.u64(engine_.now());
  w.end_section();
  w.begin_section(kCkptNetConfigTag);
  w.u64(config_.drain_factor);
  save_traffic_config(w, config_.traffic);
  save_fault_spec(w, config_.faults);
  w.end_section();
  w.begin_section(kCkptNetworkTag);
  net_->save_state(w);
  w.end_section();
  w.begin_section(kCkptSourceTag);
  source_->save_state(w);
  w.end_section();
  if (extra) extra(w);
  return w.bytes();
}

SnapshotFile NetworkRun::make_snapshot_file(const ExtraSections& extra) const {
  obs::RunManifest manifest;
  manifest.tool = "wormsched checkpoint";
  manifest.seed = original_seed_;
  manifest.add_config("kind", "network");
  manifest.add_config("restore_count", std::to_string(restore_count_));
  manifest.add_config("traffic", config_.traffic.pattern.describe());
  manifest.add_config("faults", config_.faults.describe());
  manifest.add_counter("saved_cycle", static_cast<double>(engine_.now()));
  manifest.add_counter("generated_packets",
                       static_cast<double>(source_->generated()));
  manifest.add_counter("delivered_packets",
                       static_cast<double>(net_->delivered_packets()));
  manifest.violations = audit_log_->count();
  SnapshotFile file;
  file.manifest_json = manifest_to_json(manifest);
  file.payload = checkpoint_payload(extra);
  return file;
}

void NetworkRun::save_checkpoint(const std::string& path,
                                 const ExtraSections& extra) const {
  const SnapshotFile file = make_snapshot_file(extra);
  write_snapshot_file(path, file.manifest_json, file.payload);
}

NetworkScenarioResult NetworkRun::finish() {
  WS_CHECK_MSG(!finished_, "NetworkRun::finish() called twice");
  finished_ = true;
  NetworkScenarioResult result;
  result.end_cycle = end_cycle_;
  result.generated_packets = source_->generated();
  result.delivered_packets = net_->delivered_packets();
  result.delivered_flits = net_->delivered_flits();
  result.latency = net_->latency_overall();
  result.p99_latency = net_->latency_quantiles().quantile(0.99);
  if (config_.audit) {
    // Simulation-end flush: audits the tail window a sampled cadence
    // never reaches, and cross-checks the incremental ledgers one last
    // time against the full-scan oracle.
    net_auditor_->finish(end_cycle_, *net_);
    result.audit_checks = net_auditor_->checks_run();
    result.audit_full_rescans = net_auditor_->full_rescans();
    result.audit_violations = audit_log_->count();
    for (const auto& auditor : err_auditors_)
      result.audit_opportunities += auditor->opportunities();
    net_->detach_observer(&*net_auditor_);
  }
  if (trace_sink_) {
    result.trace_recorded = trace_sink_->recorded();
    result.trace_dropped = trace_sink_->dropped();
    const obs::TraceProvenance* prov =
        restored_ ? &trace_provenance_ : nullptr;
    if (!config_.trace.chrome_path.empty())
      obs::write_chrome_trace_file(config_.trace.chrome_path, *trace_sink_,
                                   prov);
    if (!config_.trace.timeline_csv.empty())
      obs::write_service_timeline_csv_file(config_.trace.timeline_csv,
                                           *trace_sink_);
    audit_log_->set_on_report({});
  }
  return result;
}

/// --- ScenarioRun ----------------------------------------------------------

ScenarioRun::ScenarioRun(const ScenarioSpec& spec) : spec_(spec) {
  original_seed_ = spec_.config.seed;
  build_trace();
  build();
}

ScenarioRun::ScenarioRun(std::string_view scheduler,
                         const ScenarioConfig& config,
                         const traffic::Trace& trace)
    : trace_(&trace) {
  spec_.scheduler = std::string(scheduler);
  spec_.config = config;
  original_seed_ = config.seed;
  build();
}

ScenarioRun::ScenarioRun(const ScenarioSpec& wiring, const SnapshotFile& file)
    : spec_(wiring) {
  const CheckpointProvenance prov = read_checkpoint_provenance(file);
  if (prov.kind != "scenario")
    throw SnapshotError("expected a scenario checkpoint, found kind \"" +
                        prov.kind + "\"");
  original_seed_ = prov.original_seed;
  restore_count_ = prov.restore_count + 1;
  restored_ = true;
  trace_provenance_.restored = true;
  trace_provenance_.restored_from_sha = prov.saved_git_sha;
  trace_provenance_.original_seed = prov.original_seed;
  trace_provenance_.restore_cycle = prov.saved_cycle;

  SnapshotReader r(file.payload);
  r.enter_section(kCkptMetaTag);
  r.leave_section();  // parsed above
  r.enter_section(kCkptScenConfigTag);
  spec_.scheduler = r.str();
  spec_.workload_text = r.str();
  spec_.config.horizon = r.u64();
  spec_.config.drain = r.b();
  spec_.config.seed = r.u64();
  spec_.config.flit_bytes = r.u64();
  spec_.config.sched.drr_quantum = r.i64();
  spec_.config.sched.err_reset_on_idle = r.b();
  restore_sequence(r, spec_.config.sched.perr_priorities,
                   [](SnapshotReader& in) { return in.u32(); });
  restore_doubles(r, spec_.config.weights);
  spec_.faults = load_fault_spec(r);
  r.leave_section();
  build_trace();
  build();
  r.enter_section(kCkptScenStateTag);
  t_ = r.u64();
  next_arrival_ = r.u64();
  if (next_arrival_ > trace_->entries.size())
    throw SnapshotError("scenario checkpoint arrival cursor out of range");
  next_packet_id_ = r.u64();
  done_ = r.b();
  trace_round_ = r.u64();
  scheduler_->restore_state(r);
  result_->service_log.restore(r);
  result_->activity.restore(r);
  result_->delays.restore(r);
  restore_sequence(r, result_->service_starts,
                   [](SnapshotReader& in) { return in.u64(); });
  result_->max_served_packet = r.i64();
  r.leave_section();
}

ScenarioRun::~ScenarioRun() = default;

void ScenarioRun::build_trace() {
  std::string error;
  const std::optional<WorkloadParse> parsed =
      parse_workload(spec_.workload_text, &error);
  if (!parsed)
    throw SnapshotError("checkpoint workload \"" + spec_.workload_text +
                        "\" failed to parse: " + error);
  if (spec_.config.weights.empty()) spec_.config.weights = parsed->weights;
  owned_trace_ = validate::apply_trace_faults(
      spec_.faults, traffic::generate_trace(parsed->spec, spec_.config.horizon,
                                            spec_.config.seed));
}

void ScenarioRun::build() {
  const traffic::Trace& trace = *trace_;
  WS_CHECK(trace.num_flows > 0);
  core::SchedulerParams params = spec_.config.sched;
  params.num_flows = trace.num_flows;
  scheduler_ = core::make_scheduler(spec_.scheduler, params);
  WS_CHECK_MSG(scheduler_ != nullptr, "unknown scheduler name");
  if (!spec_.config.weights.empty()) {
    WS_CHECK(spec_.config.weights.size() == trace.num_flows);
    for (std::size_t i = 0; i < spec_.config.weights.size(); ++i)
      scheduler_->set_weight(FlowId(static_cast<FlowId::rep_type>(i)),
                             spec_.config.weights[i]);
  }

  result_.emplace(trace.num_flows, spec_.config.flit_bytes);
  result_->scheduler_name = std::string(scheduler_->name());

  // Runtime invariant auditing: ERR schedulers publish their opportunity
  // stream, which the auditor re-checks against the paper's bounds live.
  auto* err = dynamic_cast<core::ErrScheduler*>(scheduler_.get());
  err_ = err;
  if (spec_.config.audit && err != nullptr) {
    validate::AuditLog* log = spec_.config.audit_log;
    if (log == nullptr) log = &local_log_.emplace();
    validate::ErrAuditorConfig audit_config;
    audit_config.reset_on_idle = spec_.config.sched.err_reset_on_idle;
    auditor_.emplace(trace.num_flows, audit_config, *log);
    auditor_->attach(err->policy());
  }

  // Tracing shares ErrPolicy's single listener slot with the auditor:
  // when both are active one combined lambda feeds the auditor first
  // (attach() above already claimed the slot), then the sink.
  obs::TraceSink* sink = spec_.config.trace;
  if (sink != nullptr && err != nullptr) {
    validate::ErrAuditor* audit_ptr = auditor_ ? &*auditor_ : nullptr;
    err->policy().set_opportunity_listener(
        [this, sink, audit_ptr](const core::ErrOpportunity& op) {
          if (audit_ptr != nullptr) audit_ptr->on_opportunity(op);
          const Cycle now = sink->now();
          if (op.round != trace_round_) {
            trace_round_ = op.round;
            sink->record(obs::TraceEvent::round_boundary(
                now, op.round, op.previous_max_sc));
          }
          sink->record(obs::TraceEvent::opportunity(
              now, op.flow.value(), op.round, op.allowance,
              op.surplus_count));
        });
  }

  chain_.add(result_->service_log);
  chain_.add(result_->delays);
  chain_.add(*this);
  scheduler_->set_observer(&chain_);
}

void ScenarioRun::on_packet_arrival(Cycle now, const core::Packet& p) {
  obs::TraceSink* sink = spec_.config.trace;
  if (sink != nullptr)
    sink->record(obs::TraceEvent::packet_enqueue(now, p.flow.value(),
                                                 p.id.value(), p.length));
}

void ScenarioRun::on_flit(Cycle now, const core::FlitEvent& flit) {
  if (flit.is_head) result_->service_starts.push_back(now);
}

void ScenarioRun::on_packet_departure(Cycle now, const core::Packet& p) {
  result_->max_served_packet = std::max(result_->max_served_packet, p.length);
  obs::TraceSink* sink = spec_.config.trace;
  if (sink == nullptr) return;
  // An ERR dequeue carries the serving flow's allowance and surplus count
  // at the decision instant (both 0 for other disciplines).
  double allowance = 0.0;
  double surplus = 0.0;
  if (err_ != nullptr) {
    allowance = err_->policy().allowance();
    surplus = err_->policy().surplus_count(p.flow);
  }
  sink->record(obs::TraceEvent::packet_dequeue(
      now, p.flow.value(), p.id.value(), p.length, allowance, surplus));
}

void ScenarioRun::advance_to(Cycle target) {
  // The per-cycle state stays in locals for the whole segment, so the
  // activity snapshot (the loop's hot spot) reloads nothing through
  // `this` around each virtual queue_length() call.
  core::Scheduler& scheduler = *scheduler_;
  metrics::ActivityTracker& activity = result_->activity;
  const std::vector<traffic::TraceEntry>& entries = trace_->entries;
  const std::size_t num_flows = trace_->num_flows;
  obs::TraceSink* const sink = spec_.config.trace;
  Cycle t = t_;
  while (!done_ && t < target) {
    if (sink != nullptr) sink->set_now(t);
    // Deliver this cycle's arrivals, then offer one transmission slot —
    // the paper's service model (one flit dequeued per cycle).
    while (next_arrival_ < entries.size() &&
           entries[next_arrival_].cycle == t) {
      const traffic::TraceEntry& e = entries[next_arrival_];
      scheduler.enqueue(t, core::Packet{.id = PacketId(next_packet_id_++),
                                        .flow = e.flow,
                                        .length = e.length,
                                        .arrival = t});
      ++next_arrival_;
    }
    (void)scheduler.pull_flit(t);
    // Activity snapshot after arrivals and service: a flow is active while
    // its queue is nonempty (a packet mid-dequeue keeps its queue
    // nonempty in this framework).
    for (std::size_t i = 0; i < num_flows; ++i) {
      const FlowId flow(static_cast<FlowId::rep_type>(i));
      activity.record(t, flow, scheduler.queue_length(flow) > 0);
    }
    ++t;
    if (t >= spec_.config.horizon)
      done_ = !spec_.config.drain ||
              (next_arrival_ >= entries.size() && scheduler.idle());
  }
  t_ = t;
}

void ScenarioRun::run_to_completion() { advance_to(kCycleMax); }

std::vector<std::uint8_t> ScenarioRun::checkpoint_payload() const {
  WS_CHECK_MSG(trace_ == &owned_trace_,
               "a trace-supplied scenario run cannot be checkpointed");
  SnapshotWriter w;
  w.begin_section(kCkptMetaTag);
  w.str("scenario");
  w.u64(original_seed_);
  w.str(obs::current_git_sha());
  w.u32(restore_count_);
  w.u64(t_);
  w.end_section();
  w.begin_section(kCkptScenConfigTag);
  w.str(spec_.scheduler);
  w.str(spec_.workload_text);
  w.u64(spec_.config.horizon);
  w.b(spec_.config.drain);
  w.u64(spec_.config.seed);
  w.u64(spec_.config.flit_bytes);
  w.i64(spec_.config.sched.drr_quantum);
  w.b(spec_.config.sched.err_reset_on_idle);
  save_sequence(w, spec_.config.sched.perr_priorities,
                [](SnapshotWriter& o, std::uint32_t p) { o.u32(p); });
  save_doubles(w, spec_.config.weights);
  save_fault_spec(w, spec_.faults);
  w.end_section();
  w.begin_section(kCkptScenStateTag);
  w.u64(t_);
  w.u64(next_arrival_);
  w.u64(next_packet_id_);
  w.b(done_);
  w.u64(trace_round_);
  scheduler_->save_state(w);
  result_->service_log.save(w);
  result_->activity.save(w);
  result_->delays.save(w);
  save_sequence(w, result_->service_starts,
                [](SnapshotWriter& o, Cycle c) { o.u64(c); });
  w.i64(result_->max_served_packet);
  w.end_section();
  return w.bytes();
}

SnapshotFile ScenarioRun::make_snapshot_file() const {
  obs::RunManifest manifest;
  manifest.tool = "wormsched checkpoint";
  manifest.seed = original_seed_;
  manifest.add_config("kind", "scenario");
  manifest.add_config("scheduler", spec_.scheduler);
  manifest.add_config("workload", spec_.workload_text);
  manifest.add_config("restore_count", std::to_string(restore_count_));
  manifest.add_counter("saved_cycle", static_cast<double>(t_));
  SnapshotFile file;
  file.manifest_json = manifest_to_json(manifest);
  file.payload = checkpoint_payload();
  return file;
}

void ScenarioRun::save_checkpoint(const std::string& path) const {
  const SnapshotFile file = make_snapshot_file();
  write_snapshot_file(path, file.manifest_json, file.payload);
}

ScenarioResult ScenarioRun::finish() {
  WS_CHECK_MSG(!finished_, "ScenarioRun::finish() called twice");
  finished_ = true;
  result_->end_cycle = t_;
  result_->activity.finish(t_);
  result_->residual_backlog = scheduler_->backlog_flits();
  if (auditor_.has_value()) {
    result_->audit_opportunities = auditor_->opportunities();
    validate::AuditLog* log = spec_.config.audit_log != nullptr
                                  ? spec_.config.audit_log
                                  : &*local_log_;
    result_->audit_violations = log->count();
  }
  scheduler_->set_observer(nullptr);
  return std::move(*result_);
}

}  // namespace wormsched::harness
