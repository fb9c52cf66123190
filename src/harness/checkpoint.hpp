// Checkpoint/restore containers and resumable runners.
//
// A checkpoint file is a versioned snapshot container (common/snapshot.hpp)
// whose payload is a sequence of tagged sections:
//
//   META — kind ("network" | "scenario"), provenance (original seed, the
//          saving build's git SHA, restore count, saved cycle);
//   NCFG / SCFG — the generative run configuration (traffic law, fault
//          spec, horizon, workload text, ...), so a restored run rebuilds
//          its inputs without re-supplying them on the command line;
//   NNET + NSRC (network runs) — the full fabric and traffic-source
//          state; SSTA (scenario runs) — scheduler + metrics + replay
//          cursor state;
//   trailing sections (e.g. SOAK, the steady-state tracker) are owned by
//          the caller and skipped by readers that do not know them.
//
// The resumable runners (NetworkRun, ScenarioRun) are the load-bearing
// design point: the straight path and the checkpointed path execute the
// SAME segmented code — run_network_scenario / run_scenario construct a
// runner, drive it to completion and return finish(), with no loop of
// their own — so "checkpoint at cycle k, restore, continue" is
// flit-for-flit identical to an uninterrupted run by construction, which
// is exactly what the restore-equivalence differential suite asserts.
// (A ScenarioRun over a caller-supplied trace runs the same loop but
// cannot be checkpointed: nothing in SCFG could rebuild that trace.)
//
// Sharding/threading is runner-local, never serialized: a checkpoint
// written by a serial run restores under --threads 4 (and vice versa)
// with bit-identical results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "core/err.hpp"
#include "core/scheduler.hpp"
#include "harness/network_sweep.hpp"
#include "harness/scenario.hpp"
#include "metrics/delay.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_sink.hpp"
#include "sim/engine.hpp"
#include "validate/err_auditor.hpp"
#include "validate/faults.hpp"
#include "validate/network_auditor.hpp"
#include "validate/violation.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"

namespace wormsched::harness {

/// Checkpoint payload section tags (ASCII, little-endian).
inline constexpr std::uint32_t kCkptMetaTag = 0x4154454Du;     // "META"
inline constexpr std::uint32_t kCkptNetConfigTag = 0x4746434Eu;  // "NCFG"
inline constexpr std::uint32_t kCkptNetworkTag = 0x54454E4Eu;  // "NNET"
inline constexpr std::uint32_t kCkptSourceTag = 0x4352534Eu;   // "NSRC"
inline constexpr std::uint32_t kCkptScenConfigTag = 0x47464353u;  // "SCFG"
inline constexpr std::uint32_t kCkptScenStateTag = 0x41545353u;   // "SSTA"
inline constexpr std::uint32_t kCkptSoakTag = 0x4B414F53u;     // "SOAK"

/// Provenance embedded in (and read back from) every checkpoint.
struct CheckpointProvenance {
  std::string kind;                // "network" or "scenario"
  std::uint64_t original_seed = 0;  // seed that started the run chain
  std::string saved_git_sha;       // build that wrote this snapshot
  std::uint32_t restore_count = 0;  // restores preceding this save
  Cycle saved_cycle = 0;
};

/// Reads a checkpoint's META section (without restoring anything).
[[nodiscard]] CheckpointProvenance read_checkpoint_provenance(
    const SnapshotFile& file);

/// CLI helper: read_snapshot_file with the documented failure contract —
/// any malformed file (missing, bad magic, wrong version, truncated, CRC
/// mismatch) prints "wormsched: <path>: <reason>" to stderr and exits 2.
[[nodiscard]] SnapshotFile load_checkpoint_or_exit(const std::string& path);

/// --- Network runs ---------------------------------------------------------

/// Resumable whole-fabric run.  Owns the network, traffic source, fault
/// model, auditors and trace sink for one (config, seed) scenario and
/// advances them in segments; run_network_scenario() is the single-segment
/// special case.
class NetworkRun {
 public:
  /// Fresh run of `config` with `seed` (the exact wiring
  /// run_network_scenario has always done).
  NetworkRun(const NetworkScenarioConfig& config, std::uint64_t seed);

  /// Restored run.  Sim-defining inputs (traffic law and seed, fault
  /// spec, injection horizon, drain factor) come from the checkpoint;
  /// `config` supplies the fabric geometry (checked against the snapshot)
  /// and the run-local wiring — audit mode, trace request, shards and
  /// threads — which may legitimately differ from the saving run.
  /// Throws SnapshotError on any mismatch or corruption.
  NetworkRun(const NetworkScenarioConfig& config, const SnapshotFile& file);

  ~NetworkRun();
  NetworkRun(const NetworkRun&) = delete;
  NetworkRun& operator=(const NetworkRun&) = delete;

  [[nodiscard]] Cycle now() const { return engine_.now(); }
  [[nodiscard]] bool done() const;

  /// Advances the run to cycle `target` (or to completion, whichever is
  /// first).  Segmentation is invisible: advance_to(k) then
  /// advance_to(N) computes the identical run as advance_to(N) alone.
  void advance_to(Cycle target);
  void run_to_completion();

  /// Serializes the full run (META + NCFG + NNET + NSRC) as a checkpoint
  /// payload; `extra`, when set, appends caller-owned trailing sections
  /// (the soak harness stores its steady-state tracker this way).
  using ExtraSections = std::function<void(SnapshotWriter&)>;
  [[nodiscard]] std::vector<std::uint8_t> checkpoint_payload(
      const ExtraSections& extra = {}) const;
  /// Writes the checkpoint container (payload + wormsched-manifest-v1
  /// provenance JSON) to `path`.  Throws std::runtime_error on I/O error.
  void save_checkpoint(const std::string& path,
                       const ExtraSections& extra = {}) const;
  /// In-memory container (tests and soak chaining).
  [[nodiscard]] SnapshotFile make_snapshot_file(
      const ExtraSections& extra = {}) const;

  /// Finalizes auditors/trace exports and collects the result.  Call once,
  /// after the run is done (or after the last segment of interest).
  [[nodiscard]] NetworkScenarioResult finish();

  [[nodiscard]] wormhole::Network& network() { return *net_; }
  [[nodiscard]] const wormhole::Network& network() const { return *net_; }
  [[nodiscard]] const wormhole::NetworkTrafficSource& source() const {
    return *source_;
  }
  [[nodiscard]] validate::AuditLog& audit_log() { return *audit_log_; }
  /// Whether this run was restored from a checkpoint, and from where.
  [[nodiscard]] bool restored() const { return restored_; }
  [[nodiscard]] const obs::TraceProvenance& trace_provenance() const {
    return trace_provenance_;
  }
  [[nodiscard]] std::uint64_t original_seed() const { return original_seed_; }
  [[nodiscard]] std::uint32_t restore_count() const { return restore_count_; }

 private:
  void build();
  void wire_observers();

  NetworkScenarioConfig config_;  // effective (faults resolved, seed applied)
  std::optional<validate::ScheduledFaults> faults_;
  std::unique_ptr<wormhole::Network> net_;
  std::unique_ptr<wormhole::NetworkTrafficSource> source_;
  std::optional<obs::TraceSink> trace_sink_;
  validate::AuditLog private_log_;
  validate::AuditLog* audit_log_ = nullptr;
  std::optional<validate::NetworkAuditor> net_auditor_;
  std::vector<std::unique_ptr<validate::ErrAuditor>> err_auditors_;
  bool violation_window_dumped_ = false;
  sim::Engine engine_;
  Cycle end_cycle_ = 0;
  bool finished_ = false;

  std::uint64_t original_seed_ = 0;
  std::uint32_t restore_count_ = 0;
  bool restored_ = false;
  obs::TraceProvenance trace_provenance_;
};

/// --- Scenario runs --------------------------------------------------------

/// Everything that defines a standalone-scheduler run generatively: the
/// discipline, the workload grammar text it was launched with, the
/// ScenarioConfig, and the trace-fault spec.  All of it travels in the
/// checkpoint so a restore rebuilds the identical arrival trace.
struct ScenarioSpec {
  std::string scheduler = "err";
  std::string workload_text;
  ScenarioConfig config;
  validate::FaultSpec faults;
};

/// Resumable standalone-scheduler run: the one replay loop behind both
/// the checkpointable CLI runs and run_scenario(), its single-segment
/// trace-supplied case.  The scheduler's observer chain feeds the
/// result's service log and delay statistics, then the run itself, which
/// records service starts and the largest served packet and mirrors
/// decisions into the trace sink.
class ScenarioRun final : private core::SchedulerObserver {
 public:
  /// Fresh run: expands `spec.workload_text`, generates the trace with
  /// `spec.config.seed`, applies trace faults.
  explicit ScenarioRun(const ScenarioSpec& spec);

  /// Fresh run over a caller-supplied trace, which is borrowed (not
  /// copied) and must outlive the run.  The trace must have been
  /// generated for the same number of flows.  Such a run cannot be
  /// checkpointed: its SCFG section could not rebuild the trace.
  ScenarioRun(std::string_view scheduler, const ScenarioConfig& config,
              const traffic::Trace& trace);
  ScenarioRun(std::string_view, const ScenarioConfig&,
              traffic::Trace&&) = delete;  // would dangle

  /// Restored run: the sim-defining parts of the spec (scheduler,
  /// workload, horizon, drain, seed, weights, faults) are read from the
  /// checkpoint; `wiring` contributes only audit/trace attachments.
  ScenarioRun(const ScenarioSpec& wiring, const SnapshotFile& file);

  ~ScenarioRun() override;
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  [[nodiscard]] Cycle now() const { return t_; }
  [[nodiscard]] bool done() const { return done_; }
  void advance_to(Cycle target);
  void run_to_completion();

  /// Checkpointing needs a workload-built run (WS_CHECK otherwise).
  [[nodiscard]] std::vector<std::uint8_t> checkpoint_payload() const;
  void save_checkpoint(const std::string& path) const;
  [[nodiscard]] SnapshotFile make_snapshot_file() const;

  /// Finalizes the run (activity windows, audit counters) and yields the
  /// result.  Call once, when done.
  [[nodiscard]] ScenarioResult finish();

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  [[nodiscard]] bool restored() const { return restored_; }
  [[nodiscard]] const obs::TraceProvenance& trace_provenance() const {
    return trace_provenance_;
  }

 private:
  /// Expands spec_.workload_text into owned_trace_ (fresh and restored
  /// workload runs).
  void build_trace();
  /// Scheduler, result, auditor and trace listener over *trace_.
  void build();

  void on_packet_arrival(Cycle now, const core::Packet& p) override;
  void on_flit(Cycle now, const core::FlitEvent& flit) override;
  void on_packet_departure(Cycle now, const core::Packet& p) override;

  ScenarioSpec spec_;
  traffic::Trace owned_trace_;  // empty for trace-supplied runs
  const traffic::Trace* trace_ = &owned_trace_;
  std::unique_ptr<core::Scheduler> scheduler_;
  std::optional<ScenarioResult> result_;
  std::optional<validate::AuditLog> local_log_;
  std::optional<validate::ErrAuditor> auditor_;
  std::size_t trace_round_ = 0;
  const core::ErrScheduler* err_ = nullptr;  // scheduler_ when it is ERR
  metrics::ObserverChain chain_;

  std::size_t next_arrival_ = 0;
  PacketId::rep_type next_packet_id_ = 0;
  Cycle t_ = 0;
  bool done_ = false;
  bool finished_ = false;

  std::uint64_t original_seed_ = 0;
  std::uint32_t restore_count_ = 0;
  bool restored_ = false;
  obs::TraceProvenance trace_provenance_;
};

}  // namespace wormsched::harness
