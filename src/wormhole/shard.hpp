// Shard staging for the network tick.
//
// Every cycle runs one kernel at any shard count.  Routers are partitioned
// into contiguous ascending shard domains (NetworkConfig::shards, one
// domain by default), each with a ShardLane that stages its work.
// Determinism is by construction, not by luck:
//
//   Phase 0 (serial, caller thread) — "classify": due entries are popped
//   off the global wire FIFOs in order (including every fault-model
//   decision and its trace event) and routed into the owning shard's
//   delivery lists.  The global wires stay the single source of truth the
//   audit accessors expose.
//
//   Phase 1 — "compute": a worker lane runs its shards phase by phase —
//   deliver every shard's credits and flits, inject from every shard's
//   NICs, then tick every shard's routers with the shard's ShardLane as
//   the RouterEnv.  Sends and ejections are staged into per-shard queues;
//   nothing global is written but trace events, and a trace sink keeps
//   compute on the caller (below).  Router ticks are mutually independent
//   within a cycle (all inter-router interaction travels over wires with
//   link_latency >= 1), so any lane interleaving computes the identical
//   per-router state.  Compute runs on the worker team when there is one,
//   and inline on the caller as a single lane over every shard when
//   there is not or when a trace sink or perf counters are attached
//   (neither is thread-safe).  Shards being contiguous and ascending, the
//   inline walk visits routers in ascending order within each phase, so
//   trace events come out identically at every shard count.
//
//   Phase 2 (serial) — "commit": staged sends are appended to the global
//   wires shard-ascending.  Within a shard the lane stages wire entries in
//   router-ascending order (routers tick ascending, each router's port
//   walk is ascending, and a (router, port) emits at most one flit and
//   one credit per cycle), and shards are contiguous ascending router
//   ranges — so the concatenation is the same byte for byte at every
//   shard count.  Ejections replay in the same order, keeping the
//   delivered log and the latency RunningStats (floating-point summation
//   order included) bit-identical.
//
// Each lane also accumulates its own CycleDelta; the commit phase merges
// the lane deltas into the global delta handed to ObserverMux, so
// incremental auditing keeps working under threads (the auditor's ledger
// updates are commutative integer adds, so the shard-grouped event order
// yields the same ledgers and the same verdicts).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "wormhole/flit.hpp"
#include "wormhole/observer.hpp"
#include "wormhole/router.hpp"
#include "wormhole/topology.hpp"

namespace wormsched::wormhole {

class Network;

/// One flit in flight on a link (public for the audit accessors).
struct WireFlit {
  Cycle arrive;
  NodeId to;
  Direction in;  // input port at the destination router
  std::uint32_t cls;
  Flit flit;
};
/// One credit — or, in on/off flow control, one threshold signal — in
/// flight back to `to`'s output (`out`, `cls`).  Signals share the
/// credit wire (same latency, same FIFO order) so the tick's commit
/// argument covers them unchanged.
struct WireCredit {
  enum class Kind : std::uint8_t { kCredit = 0, kOff = 1, kOn = 2 };
  Cycle arrive;
  NodeId to;
  Direction out;  // output port credited/signalled at the destination
  std::uint32_t cls;
  Kind kind = Kind::kCredit;
};

/// Per-shard staging state + the RouterEnv its routers tick against (the
/// only RouterEnv the network has).  Owned by the Network, one per shard
/// domain; every vector is cleared — never shrunk — each cycle, so the
/// tick allocates nothing in steady state.
class ShardLane final : public RouterEnv {
 public:
  ShardLane() = default;

 private:
  friend class Network;

  struct StagedEjection {
    NodeId node;
    Flit flit;
  };

  // RouterEnv: stage instead of mutating the global fabric.  Only this
  // lane's thread runs these during the compute phase, and they touch
  // only this lane's vectors, this lane's routers' touched flags, and
  // read-only network state — plus the trace sink, which is attached
  // only while compute runs inline on the caller.
  void send_flit(NodeId from, Direction out, const Flit& flit) override;
  void eject(NodeId node, const Flit& flit, Cycle now) override;
  void send_credit(NodeId node, Direction in, std::uint32_t cls) override;
  void send_signal(NodeId node, Direction in, std::uint32_t cls,
                   bool on) override;
  RouteDecision route(NodeId node, const Flit& flit, Direction in_from,
                      std::uint32_t in_class) override;
  void route_candidates(NodeId node, const Flit& flit, Direction in_from,
                        std::uint32_t in_class, RouteCandidates& out) override;

  /// Stages a credit or on/off signal for the credit wire back to the
  /// upstream router feeding (`node`, `in`).
  void send_back(NodeId node, Direction in, std::uint32_t cls,
                 WireCredit::Kind kind);
  /// Clears every per-cycle vector (capacity retained).
  void clear_cycle();

  Network* net_ = nullptr;

  // Delivery lists, filled by the classify phase in global FIFO pop
  // order and drained by the compute phase in the same sub-order
  // (quarantine releases, then flits, then credits).
  std::vector<WireCredit> quarantine_due_;
  std::vector<WireFlit> flits_due_;
  std::vector<WireCredit> credits_due_;

  // Staged results of the compute phase, committed serially.
  std::vector<WireFlit> out_flits_;
  std::vector<WireCredit> out_credits_;
  std::vector<StagedEjection> ejections_;

  // This shard's slice of the cycle's movement record; merged into the
  // network's global delta at commit.
  CycleDelta delta_;
};

}  // namespace wormsched::wormhole
