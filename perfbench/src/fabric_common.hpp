// Helpers shared by the two fabric workloads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "validate/err_auditor.hpp"
#include "wormhole/arbiter.hpp"
#include "wormhole/network.hpp"
#include "wormhole/observer.hpp"

namespace wsbench {

/// Routers a packet's flits traversed, from its source and destination
/// coordinates: the XY route's Manhattan distance plus the source router.
[[nodiscard]] inline double routers_traversed(
    const wormsched::wormhole::Topology& topo,
    const wormsched::wormhole::DeliveredPacket& p) {
  const auto a = topo.coord(p.source);
  const auto b = topo.coord(p.dest);
  const std::uint32_t dx = a.x > b.x ? a.x - b.x : b.x - a.x;
  const std::uint32_t dy = a.y > b.y ? a.y - b.y : b.y - a.y;
  return static_cast<double>(dx + dy + 1);
}

/// Folds one delivered-packet log into the flit-hop count and the
/// delivered-stream digest (every field, in delivery order).
inline void fold_delivered(
    const wormsched::wormhole::Topology& topo,
    const std::vector<wormsched::wormhole::DeliveredPacket>& log,
    double& flit_hops, Digest& digest) {
  for (const auto& p : log) {
    flit_hops += routers_traversed(topo, p) * static_cast<double>(p.length);
    digest.add(p.id.value());
    digest.add(p.flow.value());
    digest.add(p.source.value());
    digest.add(p.dest.value());
    digest.add(static_cast<std::uint64_t>(p.length));
    digest.add(p.created);
    digest.add(p.delivered);
  }
}

/// Subscribes one ErrAuditor to every ERR output arbiter of `net`, the
/// way harness::NetworkRun wires `--audit`.
[[nodiscard]] inline std::vector<
    std::unique_ptr<wormsched::validate::ErrAuditor>>
attach_err_auditors(wormsched::wormhole::Network& net,
                    wormsched::validate::AuditLog& log) {
  namespace wh = wormsched::wormhole;
  std::vector<std::unique_ptr<wormsched::validate::ErrAuditor>> auditors;
  const std::uint32_t vcs = net.config().router.num_vcs;
  const std::size_t requesters = std::size_t{wh::kNumDirections} * vcs;
  for (std::uint32_t n = 0; n < net.topology().num_nodes(); ++n) {
    for (std::uint32_t d = 0; d < wh::kNumDirections; ++d) {
      for (std::uint32_t cls = 0; cls < vcs; ++cls) {
        auto* err = dynamic_cast<wh::ErrArbiter*>(&net.router(
            wormsched::NodeId(n)).arbiter(static_cast<wh::Direction>(d), cls));
        if (err == nullptr) continue;
        auditors.push_back(std::make_unique<wormsched::validate::ErrAuditor>(
            requesters, wormsched::validate::ErrAuditorConfig{}, log));
        auditors.back()->attach(err->policy());
      }
    }
  }
  return auditors;
}

/// Theorem 3 across a fabric: the largest fairness measure any ERR
/// output arbiter's auditor observed, over three times that arbiter's m.
[[nodiscard]] inline double worst_fm_over_3m(
    const std::vector<std::unique_ptr<wormsched::validate::ErrAuditor>>&
        auditors) {
  double worst = 0.0;
  for (const auto& a : auditors)
    if (a->m() > 0.0)
      worst = std::max(worst, a->max_fairness_measure() / (3.0 * a->m()));
  return worst;
}

/// Cycle-end observer sampling the active-set size, for the live-router
/// fraction.  Attached only in traced repetitions.
class LiveSampler final : public wormsched::wormhole::NetworkObserver {
 public:
  void on_cycle_end(wormsched::Cycle, const wormsched::wormhole::Network& net,
                    const wormsched::wormhole::CycleDelta&) override {
    live_sum_ += net.live_router_count();
    ++cycles_;
  }
  /// Mean live routers per ticked cycle over the fabric's router count.
  [[nodiscard]] double fraction(std::uint32_t routers) const {
    return cycles_ == 0 ? 0.0
                        : static_cast<double>(live_sum_) /
                              (static_cast<double>(cycles_) * routers);
  }

 private:
  std::uint64_t live_sum_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace wsbench
