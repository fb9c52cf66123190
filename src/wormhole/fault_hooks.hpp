// Fault-injection hook interface for the wormhole substrate.
//
// The network and its traffic source consult an optional FaultModel at
// well-defined points (wire delivery, credit return, injection).  The
// interface lives here, below the concrete implementation: the substrate
// knows only the questions it may ask, while the deterministic schedule
// that answers them (validate::ScheduledFaults) plugs in from above.
//
// Contract: every answer must be a pure function of (cycle, node) and the
// model's own configuration — never of call order or call count.  A run
// restored from a checkpoint, or one at another shard count, queries in
// a different order, and must still see the identical fault schedule;
// the golden digests pin exactly that.
#pragma once

#include <optional>

#include "common/types.hpp"

namespace wormsched::wormhole {

class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Fabric-wide link stall: when true, flit-wire delivery pauses for this
  /// cycle (in-flight flits keep their order and arrive late).
  [[nodiscard]] virtual bool link_stalled(Cycle now) const {
    (void)now;
    return false;
  }

  /// Credit starvation: cycles to quarantine a credit arriving at `node`
  /// this cycle (0 = deliver normally).  Release cycles must be
  /// non-decreasing in arrival order so the quarantine stays a FIFO.
  [[nodiscard]] virtual Cycle credit_hold_cycles(Cycle now,
                                                 NodeId node) const {
    (void)now;
    (void)node;
    return 0;
  }

  /// Injection-rate multiplier for `node`'s traffic source: 0 churns the
  /// source off for the cycle, > 1 models a burst.  The effective rate is
  /// clamped to 1 packet/node/cycle by the source.
  [[nodiscard]] virtual double injection_multiplier(Cycle now,
                                                    NodeId node) const {
    (void)now;
    (void)node;
    return 1.0;
  }

  /// Destination override during hotspot bursts; nullopt = pattern's
  /// choice.  Returning `src` itself is ignored by the source.
  [[nodiscard]] virtual std::optional<NodeId> burst_destination(
      Cycle now, NodeId src) const {
    (void)now;
    (void)src;
    return std::nullopt;
  }
};

}  // namespace wormsched::wormhole
