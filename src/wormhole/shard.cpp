#include "wormhole/shard.hpp"

#include "common/assert.hpp"
#include "wormhole/network.hpp"

namespace wormsched::wormhole {

void ShardLane::send_flit(NodeId from, Direction out, const Flit& flit) {
  const NodeId to = net_->topo_.neighbor(from, out);
  WS_CHECK_MSG(to.is_valid(), "flit sent off the edge of the fabric");
  const auto cls = static_cast<std::uint32_t>(flit.vc_class.value());
  out_flits_.push_back(WireFlit{net_->now_ + net_->config_.link_latency, to,
                                net_->topo_.peer_port(from, out), cls, flit});
  if (net_->collect_delta_) {
    net_->touch_into(delta_, from.index());
    delta_.flits_to_wire.push_back(
        CycleDelta::UnitEvent{net_->delta_unit(from, out, cls), from.value()});
  }
}

void ShardLane::eject(NodeId node, const Flit& flit, Cycle now) {
  // Staged whole: the delivered log, the latency stats (whose
  // floating-point summation order must not depend on the shard count),
  // and the ejection delta all happen at commit, in router order.
  ejections_.push_back(StagedEjection{node, flit});
  // A trace sink keeps compute on the caller thread, so the event is
  // recorded here, in router-scan order among the routers' own events.
  if (net_->trace_ != nullptr) {
    const bool tail = is_tail(flit.type);
    const double latency =
        tail ? static_cast<double>(now - flit.created) : 0.0;
    net_->trace_->record(obs::TraceEvent::flit_eject(
        now, node.value(), flit.flow.value(), flit.packet.value(), flit.index,
        tail, latency));
  }
}

void ShardLane::send_credit(NodeId node, Direction in, std::uint32_t cls) {
  send_back(node, in, cls, WireCredit::Kind::kCredit);
}

void ShardLane::send_signal(NodeId node, Direction in, std::uint32_t cls,
                            bool on) {
  send_back(node, in, cls, on ? WireCredit::Kind::kOn : WireCredit::Kind::kOff);
}

void ShardLane::send_back(NodeId node, Direction in, std::uint32_t cls,
                          WireCredit::Kind kind) {
  const NodeId upstream = net_->topo_.neighbor(node, in);
  WS_CHECK(upstream.is_valid());
  out_credits_.push_back(WireCredit{net_->now_ + net_->config_.link_latency,
                                    upstream, net_->topo_.peer_port(node, in),
                                    cls, kind});
  if (net_->collect_delta_) {
    net_->touch_into(delta_, node.index());
    delta_.credits_to_wire.push_back(
        CycleDelta::UnitEvent{net_->delta_unit(node, in, cls), node.value()});
  }
}

RouteDecision ShardLane::route(NodeId node, const Flit& flit,
                               Direction in_from, std::uint32_t in_class) {
  // Topology routing is const and stateless: safe from any lane.
  return net_->topo_.route(node, flit.dest, in_from, in_class);
}

void ShardLane::route_candidates(NodeId node, const Flit& flit,
                                 Direction in_from, std::uint32_t in_class,
                                 RouteCandidates& out) {
  if (net_->config_.routing == NetworkConfig::Routing::kWestFirst) {
    net_->topo_.west_first_candidates(node, flit.dest, in_from, in_class, out);
    return;
  }
  if (net_->config_.routing == NetworkConfig::Routing::kUpDownAdaptive) {
    net_->topo_.updown_candidates(node, flit.dest, in_from, in_class, out);
    return;
  }
  out.push_back(route(node, flit, in_from, in_class));
}

void ShardLane::clear_cycle() {
  quarantine_due_.clear();
  flits_due_.clear();
  credits_due_.clear();
  out_flits_.clear();
  out_credits_.clear();
  ejections_.clear();
  delta_.clear();
}

}  // namespace wormsched::wormhole
