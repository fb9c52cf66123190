#include "wormhole/network.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/snapshot.hpp"
#include "wormhole/flit_snapshot.hpp"

namespace wormsched::wormhole {

namespace {

/// `config.router` with the on/off auto watermarks (0) resolved.  An
/// "off" emitted at occupancy on_high takes link_latency (L) cycles to
/// arrive, during which the sender streams L - 1 more flits on top of the
/// L already in flight (2L - 1 of headroom).  A link-stall fault can
/// additionally bunch up to L spaced arrivals into one delivery burst
/// that jumps occupancy past on_high before the off fires, so the auto
/// watermark reserves 3L - 2 slots — overflow-proof even under faults
/// (for L = 1 the two bounds coincide).  Explicit watermarks are only
/// required to be ordered; the auditor polices what a too-tight choice
/// actually breaks.
RouterConfig resolved_router(const NetworkConfig& config) {
  RouterConfig rc = config.router;
  if (rc.flow_control != FlowControl::kOnOff ||
      rc.buffer_model != BufferModel::kFinite)
    return rc;
  const std::uint32_t headroom = 3 * config.link_latency - 2;
  if (rc.on_high == 0)
    rc.on_high = rc.buffer_depth > headroom ? rc.buffer_depth - headroom : 1;
  if (rc.on_low == 0) rc.on_low = (rc.on_high + 1) / 2;
  return rc;
}

}  // namespace

std::string NetworkConfig::validate() const {
  if (link_latency < 1) return "link_latency must be >= 1";
  if (shards < 1) return "shards must be >= 1";
  if (threads < 1) return "threads must be >= 1";
  if (std::string error = resolved_router(*this).validate(); !error.empty())
    return error;
  // Node ids are 32-bit, and so is the CycleDelta key Network::delta_unit
  // gives every (node, port, VC class) unit.
  constexpr std::uint64_t kKeys = std::uint64_t{1} << 32;
  const std::uint64_t nodes = topo.kind == TopologySpec::Kind::kFatTree
                                  ? topo.num_nodes()
                                  : std::uint64_t{topo.width} * topo.height;
  if (nodes >= kKeys)
    return "fabric has " + std::to_string(nodes) +
           " nodes, more than a 32-bit node id can name";
  const std::uint64_t units = nodes * kNumDirections * router.num_vcs;
  if (units > kKeys)
    return "fabric has " + std::to_string(units) +
           " (node, port, VC) units, more than the 32-bit unit key holds";
  if (topo.kind == TopologySpec::Kind::kTorus) {
    if (router.num_vcs < 2)
      return "torus requires >= 2 VC classes (dateline rule)";
    if (routing != Routing::kDor)
      return "torus supports deterministic DOR routing only";
  }
  if (routing == Routing::kWestFirst &&
      topo.kind != TopologySpec::Kind::kMesh)
    return "west-first routing is mesh-only";
  if (routing == Routing::kUpDownAdaptive &&
      topo.kind != TopologySpec::Kind::kFatTree)
    return "up/down adaptive routing is fat-tree-only";
  return {};
}

Network::Network(const NetworkConfig& config)
    : config_(config), topo_(config.topo) {
  const std::string error = config.validate();
  WS_CHECK_MSG(error.empty(), error.c_str());
  config_.router = resolved_router(config);
  // In on/off mode a link stall freezes the router pipelines as well:
  // with no credits to absorb the slip, a stalled channel asserts
  // backpressure straight into the output stage, and senders that kept
  // streaming would overflow the fixed watermark headroom the moment the
  // stall released its bunched-up flits.
  freeze_on_stall_ = config.router.flow_control == FlowControl::kOnOff &&
                     config.router.buffer_model == BufferModel::kFinite;
  routers_.reserve(topo_.num_nodes());
  for (std::uint32_t n = 0; n < topo_.num_nodes(); ++n)
    routers_.emplace_back(NodeId(n), config_.router);  // resolved watermarks
  nics_.resize(topo_.num_nodes());
  router_live_.resize(topo_.num_nodes(), 0);
  touched_flag_.resize(topo_.num_nodes(), 0);
  latency_by_source_.resize(topo_.num_nodes());

  // Sharding geometry: one staging lane per shard domain (at least one),
  // and a worker team only when more than one lane would run.
  shard_ranges_ = make_shard_partition(topo_.num_nodes(), config.shards);
  const auto num_shards = static_cast<std::uint32_t>(shard_ranges_.size());
  shard_live_.assign(num_shards, 0);
  shard_nonempty_nics_.assign(num_shards, 0);
  shard_nic_backlog_.assign(num_shards, 0);
  shard_of_.resize(topo_.num_nodes());
  for (std::uint32_t s = 0; s < num_shards; ++s)
    for (std::uint32_t n = shard_ranges_[s].begin; n < shard_ranges_[s].end;
         ++n)
      shard_of_[n] = s;
  lanes_ = std::vector<ShardLane>(num_shards);
  for (ShardLane& lane : lanes_) lane.net_ = this;
  const std::uint32_t team_lanes = std::min(config.threads, num_shards);
  if (team_lanes > 1) team_ = std::make_unique<TickTeam>(team_lanes);
}

void Network::inject(Cycle, const PacketDescriptor& packet) {
  WS_CHECK(packet.length > 0);
  WS_CHECK_MSG(packet.source.value() < topo_.num_endpoints() &&
                   packet.dest.value() < topo_.num_endpoints(),
               "packet source/dest must be fabric endpoints");
  Nic& nic = nics_[packet.source.index()];
  const std::uint32_t s = shard_of_[packet.source.index()];
  if (nic.queue.empty()) ++shard_nonempty_nics_[s];
  nic.queue.push_back(packet);
  shard_nic_backlog_[s] += packet.length;
  injected_flits_ += packet.length;
  ++injected_;
  // inject() runs between ticks (traffic sources fire before the
  // network), so the enqueue lands in the delta the next tick publishes.
  if (collect_delta_) delta_.enqueued_flits += packet.length;
}

void Network::refresh_delta_collection() {
  const bool want = observers_.any_wants_delta();
  if (collect_delta_ && !want) {
    for (const std::uint32_t n : delta_.touched) touched_flag_[n] = 0;
    delta_.clear();
  }
  collect_delta_ = want;
}

void Network::mark_live(std::size_t index) {
  if (router_live_[index]) return;
  router_live_[index] = 1;
  ++shard_live_[shard_of_[index]];
}

void Network::retire(std::size_t index) {
  router_live_[index] = 0;
  --shard_live_[shard_of_[index]];
}

void Network::apply_wire_credit(const WireCredit& wc) {
  Router& rt = routers_[wc.to.index()];
  if (wc.kind == WireCredit::Kind::kCredit)
    rt.accept_credit(wc.out, wc.cls);
  else
    rt.accept_signal(wc.out, wc.cls, wc.kind == WireCredit::Kind::kOn);
  mark_live(wc.to.index());
}

void Network::eject(NodeId node, const Flit& flit, Cycle now) {
  ++delivered_flits_;
  if (collect_delta_) {
    touch(node.index());
    delta_.ejections.push_back(node.value());
  }
  WS_CHECK_MSG(flit.dest == node, "flit ejected at the wrong node");
  if (!is_tail(flit.type)) return;
  if (config_.record_delivered)
    delivered_.push_back(DeliveredPacket{flit.packet, flit.flow, flit.source,
                                         flit.dest, flit.index + 1,
                                         flit.created, now});
  const std::size_t fi = flit.flow.index();
  if (fi >= flow_delivered_flits_.size())
    flow_delivered_flits_.resize(fi + 1, 0);
  flow_delivered_flits_[fi] += flit.index + 1;
  ++delivered_packets_;
  const auto latency = static_cast<double>(now - flit.created);
  latency_by_source_[flit.source.index()].add(latency);
  latency_overall_.add(latency);
  latency_quantiles_.add(latency);
}

void Network::set_perf_counters(metrics::PerfCounters* counters) {
  perf_ = counters;
  for (Router& r : routers_) r.set_perf_counters(counters);
}

void Network::set_trace_sink(obs::TraceSink* sink) {
  trace_ = sink;
  for (Router& r : routers_) r.set_trace_sink(sink);
}

void Network::nic_inject_one(Cycle now, std::uint32_t n, CycleDelta& delta) {
  Nic& nic = nics_[n];
  Router& r = routers_[n];
  if (!r.can_accept_local(0)) return;
  const PacketDescriptor& pkt = nic.queue.front();
  Flit flit;
  flit.packet = pkt.id;
  flit.flow = pkt.flow;
  flit.source = pkt.source;
  flit.dest = pkt.dest;
  flit.vc_class = VcId(0);
  flit.index = nic.sent_of_current;
  flit.created = pkt.created;
  const bool head = nic.sent_of_current == 0;
  const bool tail = nic.sent_of_current + 1 == pkt.length;
  flit.type = head && tail  ? FlitType::kHeadTail
              : head        ? FlitType::kHead
              : tail        ? FlitType::kTail
                            : FlitType::kBody;
  r.accept_flit(Direction::kLocal, 0, flit);
  if (trace_ != nullptr)
    trace_->record(obs::TraceEvent::flit_inject(
        now, n, flit.flow.value(), flit.packet.value(), flit.index));
  mark_live(n);
  if (collect_delta_) {
    touch_into(delta, n);
    delta.injections.push_back(n);
  }
  const std::uint32_t s = shard_of_[n];
  --shard_nic_backlog_[s];
  if (tail) {
    (void)nic.queue.pop_front();
    nic.sent_of_current = 0;
    if (nic.queue.empty()) --shard_nonempty_nics_[s];
  } else {
    ++nic.sent_of_current;
  }
}

void Network::tick(Cycle now) {
  now_ = now;
  if (trace_ != nullptr) trace_->set_now(now);
  const bool stalled =
      config_.faults != nullptr && config_.faults->link_stalled(now);
  // Under on/off flow control a stalled link freezes the pipelines too
  // (see the ctor comment); signals still deliver, traffic still queues
  // at the NICs.
  const bool frozen = stalled && freeze_on_stall_;

  classify(now, stalled);

  // Phase 1 — compute.  Lane l handles shards l, l + lanes, ...; each
  // shard's work touches only its own routers, NICs, counters and
  // staging vectors, and the barriers inside run() order it against the
  // serial phases.  Trace sinks and perf counters are single-threaded, so
  // with either attached — or with no team — compute runs inline on the
  // caller as one lane over every shard.  Shards are contiguous ascending
  // router ranges, so that inline walk records events in exactly the
  // router-ascending order of a one-shard tick.
  if (team_ != nullptr && trace_ == nullptr && perf_ == nullptr) {
    const std::uint32_t stride = team_->lanes();
    team_->run([&](std::uint32_t lane) { compute(now, frozen, lane, stride); });
  } else {
    compute(now, frozen, 0, 1);
  }

  commit(now);

  // Observers (auditor, probes) see the settled post-cycle state plus
  // this cycle's delta.  The delta is cleared after dispatch; its vectors
  // keep their capacity, so steady state allocates nothing.
  if (!observers_.empty()) {
    metrics::ScopedStageTimer timer(perf_, metrics::Stage::kObserver);
    observers_.on_cycle_end(now, *this, delta_);
    if (collect_delta_) {
      for (const std::uint32_t n : delta_.touched) touched_flag_[n] = 0;
      delta_.clear();
    }
  }
}

void Network::classify(Cycle now, bool stalled) {
  metrics::ScopedStageTimer timer(perf_, metrics::Stage::kWireDelivery);
  // The global wires are popped in FIFO order — every fault-model
  // decision included — and each arrival lands on the owning shard's
  // delivery list.  The from-wire delta events go straight into the
  // global delta, in pop order.  The global FIFOs stay the single source
  // of truth the audit accessors expose.
  const auto credit_from_wire = [this](const WireCredit& wc) {
    if (!collect_delta_) return;
    touch(wc.to.index());
    delta_.credits_from_wire.push_back(CycleDelta::UnitEvent{
        delta_unit(wc.to, wc.out, wc.cls), wc.to.value()});
  };

  // Credits whose starvation window has elapsed re-enter the protocol.
  while (!credit_quarantine_.empty() &&
         credit_quarantine_.front().arrive <= now) {
    const WireCredit wc = credit_quarantine_.pop_front();
    lanes_[shard_of_[wc.to.index()]].quarantine_due_.push_back(wc);
    credit_from_wire(wc);
  }

  // Constant latency -> FIFO order.  A link stall pauses flit delivery
  // for the cycle — the flits stay queued, in order, and arrive late;
  // nothing is ever dropped.
  if (!stalled) {
    while (!flit_wire_.empty() && flit_wire_.front().arrive <= now) {
      const WireFlit wf = flit_wire_.pop_front();
      lanes_[shard_of_[wf.to.index()]].flits_due_.push_back(wf);
      if (collect_delta_) {
        touch(wf.to.index());
        delta_.flits_from_wire.push_back(CycleDelta::UnitEvent{
            delta_unit(wf.to, wf.in, wf.cls), wf.to.value()});
      }
    }
  } else if (trace_ != nullptr && !flit_wire_.empty() &&
             flit_wire_.front().arrive <= now) {
    // Only stalls that actually delay a due flit are events; recording
    // every cycle of an idle-fabric stall window would just flood the
    // ring.
    trace_->record(obs::TraceEvent::fault_link_stall(now));
  }

  const FaultModel* faults = config_.faults;
  while (!credit_wire_.empty() && credit_wire_.front().arrive <= now) {
    const WireCredit wc = credit_wire_.pop_front();
    // On/off signals are exempt from the credit-hold fault: delaying an
    // "off" would break the watermark overshoot bound, turning a liveness
    // fault into a buffer-overflow correctness bug.  The fault model is a
    // pure hash of (cycle, node), so skipping the query for signals
    // leaves every credit's verdict unchanged.
    const Cycle hold =
        faults != nullptr && wc.kind == WireCredit::Kind::kCredit
            ? faults->credit_hold_cycles(now, wc.to)
            : 0;
    if (hold > 0) {
      WireCredit held = wc;
      held.arrive = now + hold;
      credit_quarantine_.push_back(held);
      if (trace_ != nullptr)
        trace_->record(
            obs::TraceEvent::fault_credit_hold(now, wc.to.value(), hold));
      continue;
    }
    lanes_[shard_of_[wc.to.index()]].credits_due_.push_back(wc);
    credit_from_wire(wc);
  }
}

void Network::compute(Cycle now, bool frozen, std::uint32_t first,
                      std::uint32_t stride) {
  const std::uint32_t num_shards = shard_count();
  {
    // Deliver the classified arrivals in pop sub-order: quarantine
    // releases, then flits, then wire credits.  Per-router arrival order
    // is all that matters for bit-identity (routers only interact via the
    // wires), and it is preserved exactly.  An arrival enrolls its router
    // in the active set.
    metrics::ScopedStageTimer timer(perf_, metrics::Stage::kWireDelivery);
    for (std::uint32_t s = first; s < num_shards; s += stride) {
      const ShardLane& lane = lanes_[s];
      for (const WireCredit& wc : lane.quarantine_due_) apply_wire_credit(wc);
      for (const WireFlit& wf : lane.flits_due_) {
        routers_[wf.to.index()].accept_flit(wf.in, wf.cls, wf.flit);
        mark_live(wf.to.index());
      }
      for (const WireCredit& wc : lane.credits_due_) apply_wire_credit(wc);
    }
  }

  // Stalled on/off cycle: arrivals above still land (signals must keep
  // moving), but injection and the pipelines freeze.
  if (frozen) return;

  {
    // NIC injection: one flit per node per cycle into local VC class 0.
    // Only NICs holding backlog are visited; `remaining` cuts the scan
    // off once every nonempty NIC has been seen.  Wire flits never land
    // on a kLocal input, so each node's accept decision depends only on
    // its own router.
    metrics::ScopedStageTimer timer(perf_, metrics::Stage::kNicInject);
    for (std::uint32_t s = first; s < num_shards; s += stride) {
      if (shard_nic_backlog_[s] == 0) continue;
      const ShardRange range = shard_ranges_[s];
      std::uint32_t remaining = shard_nonempty_nics_[s];
      for (std::uint32_t n = range.begin; remaining != 0 && n < range.end;
           ++n) {
        if (nics_[n].queue.empty()) continue;
        --remaining;
        nic_inject_one(now, n, lanes_[s].delta_);
      }
    }
  }

  // Router pipelines, ticked against their shard's staging lane.  A
  // drained router's tick is a no-op (nothing to route, grant, charge or
  // forward), so only active routers tick; the ascending scan produces
  // the same side effects, in the same order, as ticking every router.
  // New work only travels via the wires (link latency >= 1), never
  // mid-scan, so the live count at loop entry bounds the routers left to
  // visit.
  for (std::uint32_t s = first; s < num_shards; s += stride) {
    ShardLane& lane = lanes_[s];
    const ShardRange range = shard_ranges_[s];
    std::uint32_t remaining = shard_live_[s];
    for (std::uint32_t n = range.begin; remaining != 0 && n < range.end; ++n) {
      if (!router_live_[n]) continue;
      --remaining;
      routers_[n].tick(now, lane);
      if (routers_[n].drained()) {
        retire(n);
        // The one liveness change with no event of its own: a credit can
        // wake an already-drained router, whose next tick is a no-op that
        // idles it again.
        if (collect_delta_) touch_into(lane.delta_, n);
      }
    }
  }
}

void Network::commit(Cycle now) {
  // Appending the staged sends shard-ascending reproduces the one-shard
  // FIFO contents byte for byte (see shard.hpp for the argument).
  for (const ShardLane& lane : lanes_) {
    for (const WireFlit& wf : lane.out_flits_) flit_wire_.push_back(wf);
    for (const WireCredit& wc : lane.out_credits_) credit_wire_.push_back(wc);
  }
  // Ejections replay in shard-ascending (= router-ascending) order: the
  // delivered log, the latency RunningStats (floating-point summation
  // order included) and the ejection delta events come out the same at
  // every shard count.
  for (const ShardLane& lane : lanes_)
    for (const ShardLane::StagedEjection& e : lane.ejections_)
      eject(e.node, e.flit, now);
  // Merge the lane deltas (to-wire events, injections, touched) into the
  // global delta, shard-ascending.
  if (collect_delta_) {
    const auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    for (const ShardLane& lane : lanes_) {
      append(delta_.flits_to_wire, lane.delta_.flits_to_wire);
      append(delta_.credits_to_wire, lane.delta_.credits_to_wire);
      append(delta_.injections, lane.delta_.injections);
      append(delta_.touched, lane.delta_.touched);
    }
  }
  for (ShardLane& lane : lanes_) lane.clear_cycle();
}

bool Network::idle() const {
  return flit_wire_.empty() && credit_wire_.empty() &&
         credit_quarantine_.empty() && nic_backlog_flits() == 0 &&
         live_router_count() == 0;
}

namespace {

void save_wire_flit(SnapshotWriter& w, const WireFlit& wf) {
  w.u64(wf.arrive);
  w.u32(wf.to.value());
  w.u8(static_cast<std::uint8_t>(wf.in));
  w.u32(wf.cls);
  save_flit(w, wf.flit);
}

WireFlit load_wire_flit(SnapshotReader& r, std::uint32_t num_nodes,
                        std::uint32_t num_vcs) {
  WireFlit wf;
  wf.arrive = r.u64();
  wf.to = NodeId(r.u32());
  const std::uint8_t in = r.u8();
  if (wf.to.value() >= num_nodes || in >= kNumDirections)
    throw SnapshotError("wire flit addresses a node or port off the fabric");
  wf.in = static_cast<Direction>(in);
  wf.cls = r.u32();
  if (wf.cls >= num_vcs)
    throw SnapshotError("wire flit names a VC class the fabric lacks");
  wf.flit = load_flit(r);
  return wf;
}

void save_wire_credit(SnapshotWriter& w, const WireCredit& wc) {
  w.u64(wc.arrive);
  w.u32(wc.to.value());
  w.u8(static_cast<std::uint8_t>(wc.out));
  w.u32(wc.cls);
  w.u8(static_cast<std::uint8_t>(wc.kind));
}

WireCredit load_wire_credit(SnapshotReader& r, std::uint32_t num_nodes,
                            std::uint32_t num_vcs) {
  WireCredit wc;
  wc.arrive = r.u64();
  wc.to = NodeId(r.u32());
  const std::uint8_t out = r.u8();
  if (wc.to.value() >= num_nodes || out >= kNumDirections)
    throw SnapshotError("wire credit addresses a node or port off the fabric");
  wc.out = static_cast<Direction>(out);
  wc.cls = r.u32();
  if (wc.cls >= num_vcs)
    throw SnapshotError("wire credit names a VC class the fabric lacks");
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(WireCredit::Kind::kOn))
    throw SnapshotError("wire credit has an unknown kind");
  wc.kind = static_cast<WireCredit::Kind>(kind);
  return wc;
}

}  // namespace

void Network::save_state(SnapshotWriter& w) const {
  // Geometry fingerprint, checked on restore.  Sharding (shards/threads)
  // is deliberately absent: it never changes results, so a snapshot is
  // free to restore under a different thread count.
  w.u8(static_cast<std::uint8_t>(config_.topo.kind));
  w.u32(config_.topo.width);
  w.u32(config_.topo.height);
  w.u32(config_.router.num_vcs);
  w.u32(config_.router.buffer_depth);
  w.str(config_.router.arbiter);
  w.u64(config_.link_latency);
  w.u8(static_cast<std::uint8_t>(config_.routing));
  w.u8(static_cast<std::uint8_t>(config_.router.flow_control));
  w.u8(static_cast<std::uint8_t>(config_.router.buffer_model));
  // Watermarks are saved post-resolution (the ctor replaced the 0 = auto
  // sentinels), so resolved state compares against resolved state.
  w.u32(config_.router.on_high);
  w.u32(config_.router.on_low);

  w.u64(now_);
  w.u64(injected_);
  w.u64(delivered_packets_);
  w.u64(delivered_flits_);
  w.i64(injected_flits_);

  w.u64(nics_.size());
  for (const Nic& nic : nics_) {
    save_sequence(w, nic.queue, [](SnapshotWriter& o,
                                   const PacketDescriptor& p) {
      save_packet_descriptor(o, p);
    });
    w.i64(nic.sent_of_current);
  }

  save_sequence(w, flit_wire_, save_wire_flit);
  save_sequence(w, credit_wire_, save_wire_credit);
  save_sequence(w, credit_quarantine_, save_wire_credit);

  w.u64(latency_by_source_.size());
  for (const RunningStat& s : latency_by_source_) s.save(w);
  latency_overall_.save(w);
  latency_quantiles_.save(w);

  w.u64(router_live_.size());
  for (const std::uint8_t live : router_live_) w.b(live != 0);
  for (const Router& router : routers_) router.save_state(w);
}

void Network::restore_state(SnapshotReader& r) {
  const auto kind = static_cast<TopologySpec::Kind>(r.u8());
  const std::uint32_t width = r.u32();
  const std::uint32_t height = r.u32();
  const std::uint32_t num_vcs = r.u32();
  const std::uint32_t buffer_depth = r.u32();
  const std::string arbiter = r.str();
  const Cycle link_latency = r.u64();
  const auto routing = static_cast<NetworkConfig::Routing>(r.u8());
  if (kind != config_.topo.kind || width != config_.topo.width ||
      height != config_.topo.height)
    throw SnapshotError("snapshot topology does not match this network");
  if (num_vcs != config_.router.num_vcs ||
      buffer_depth != config_.router.buffer_depth ||
      arbiter != config_.router.arbiter)
    throw SnapshotError("snapshot router config does not match this network");
  if (link_latency != config_.link_latency || routing != config_.routing)
    throw SnapshotError("snapshot link/routing config does not match this "
                        "network");
  const auto flow_control = static_cast<FlowControl>(r.u8());
  const auto buffer_model = static_cast<BufferModel>(r.u8());
  const std::uint32_t on_high = r.u32();
  const std::uint32_t on_low = r.u32();
  if (flow_control != config_.router.flow_control ||
      buffer_model != config_.router.buffer_model ||
      on_high != config_.router.on_high || on_low != config_.router.on_low)
    throw SnapshotError("snapshot flow-control config does not match this "
                        "network");

  now_ = r.u64();
  injected_ = r.u64();
  delivered_packets_ = r.u64();
  delivered_flits_ = r.u64();
  injected_flits_ = r.i64();

  if (r.u64() != nics_.size())
    throw SnapshotError("snapshot NIC count does not match this network");
  const auto num_shards = static_cast<std::uint32_t>(shard_ranges_.size());
  shard_nonempty_nics_.assign(num_shards, 0);
  shard_nic_backlog_.assign(num_shards, 0);
  for (std::size_t n = 0; n < nics_.size(); ++n) {
    Nic& nic = nics_[n];
    restore_sequence(r, nic.queue, [](SnapshotReader& i) {
      return load_packet_descriptor(i);
    });
    nic.sent_of_current = r.i64();
    if (!nic.queue.empty() &&
        (nic.sent_of_current < 0 ||
         nic.sent_of_current >= nic.queue.front().length))
      throw SnapshotError("NIC mid-packet cursor is outside its packet");
    // Per-shard injection bookkeeping is derived state: recompute it so
    // the shard geometry of the restoring network (which may differ from
    // the saving one) gets consistent counters.
    const std::uint32_t s = shard_of_[n];
    if (!nic.queue.empty()) ++shard_nonempty_nics_[s];
    Flits backlog = -nic.sent_of_current;
    for (std::size_t i = 0; i < nic.queue.size(); ++i) {
      const PacketDescriptor& p = nic.queue[i];
      if (p.length <= 0) throw SnapshotError("queued packet has no flits");
      backlog += p.length;
    }
    shard_nic_backlog_[s] += backlog;
  }

  const std::uint32_t nodes = topo_.num_nodes();
  const std::uint32_t vcs = config_.router.num_vcs;
  restore_sequence(r, flit_wire_, [nodes, vcs](SnapshotReader& i) {
    return load_wire_flit(i, nodes, vcs);
  });
  restore_sequence(r, credit_wire_, [nodes, vcs](SnapshotReader& i) {
    return load_wire_credit(i, nodes, vcs);
  });
  restore_sequence(r, credit_quarantine_, [nodes, vcs](SnapshotReader& i) {
    return load_wire_credit(i, nodes, vcs);
  });

  if (r.u64() != latency_by_source_.size())
    throw SnapshotError("snapshot source count does not match this network");
  for (RunningStat& s : latency_by_source_) s.restore(r);
  latency_overall_.restore(r);
  latency_quantiles_.restore(r);

  if (r.u64() != router_live_.size())
    throw SnapshotError("snapshot router count does not match this network");
  shard_live_.assign(num_shards, 0);
  for (std::size_t n = 0; n < router_live_.size(); ++n) {
    const bool live = r.b();
    router_live_[n] = live ? 1 : 0;
    if (live) ++shard_live_[shard_of_[n]];
  }
  for (Router& router : routers_) router.restore_state(r);
}

std::vector<Flits> Network::delivered_flits_by_flow(
    std::size_t num_flows) const {
  WS_CHECK(flow_delivered_flits_.size() <= num_flows);
  std::vector<Flits> counts(num_flows, 0);
  std::copy(flow_delivered_flits_.begin(), flow_delivered_flits_.end(),
            counts.begin());
  return counts;
}

}  // namespace wormsched::wormhole
