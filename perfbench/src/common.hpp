// Shared plumbing for the benchmark program: clocks, span accounting,
// digests and the result record every workload fills.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wsbench {

/// Host wall clock in seconds (steady, monotonic).
[[nodiscard]] double now_s();
/// Process CPU time (user + sys, all threads) in seconds.
[[nodiscard]] double cpu_s();
/// Process system CPU time in seconds.
[[nodiscard]] double sys_s();
/// Process high-water resident set size in MB.
[[nodiscard]] double peak_rss_mb();

/// Fixed memory-bound reference kernel (a dependent pointer chase over a
/// 64 MiB permutation).  Returns its wall time in ms.  Used only to tell
/// a contended host from a quiet one; never inside a measured span.
[[nodiscard]] double mem_probe_ms();

/// Fixed host-speed reference kernel, shaped like the activity snapshot
/// that dominates sched_replay_1k: 4,000 branchy sweeps over 1,024
/// per-flow slots that append a window entry on every state change.  It
/// runs once on each of `lanes` threads at the same time and returns the
/// wall time of the whole call in seconds.  main times it right before
/// and right after every repetition, at the workload's lane count, so
/// run.py can scale the repetition's host times to a reference host speed
/// (README.md, "Host-speed normalisation").  Never inside a measured span.
[[nodiscard]] double ref_kernel_s(unsigned lanes);

/// Accumulates named host-time spans (seconds) and counters.  A span's
/// name is the layer metric it feeds.
class Spans {
 public:
  void add(const std::string& name, double seconds) {
    values_[name] += seconds;
  }
  void set(const std::string& name, double value) { values_[name] = value; }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, double>& values() const {
    return values_;
  }

 private:
  std::map<std::string, double> values_;
};

/// Times one scope into `spans[name]` when `spans` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, const char* name)
      : spans_(spans), name_(name), start_(spans != nullptr ? now_s() : 0.0) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->add(name_, now_s() - start_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  const char* name_;
  double start_;
};

/// 64-bit FNV-1a, fed field by field.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Simulated outputs of one repetition.  Identical across repetitions of
/// one seed, and across builds that change only performance.
struct SimStats {
  double packets = 0;       // packets delivered
  double flits = 0;         // flits offered (trace or injected)
  double cycles = 0;
  double latency_mean = 0;
  double latency_p99 = 0;
  double delivered_frac = 0;
  double fm_over_3m = -1;   // Theorem 3: max FM / 3m (-1: not audited)
  double arf_flits = -1;    // sched_replay only: average relative fairness
  double violations = 0;    // auditor violations
  std::string digest;       // delivered-stream digest
};

/// One repetition: set-up, the measured span, and (traced) layer spans.
struct Sample {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double sys_s = 0;
  double flit_hops = 0;
  /// ref_kernel_s at the workload's lane count, the mean of one call
  /// right before and one right after the repetition (set by main).
  double ref_s = 0;
  SimStats sim;
  /// Gate failures found inside the workload (e.g. a residual backlog).
  std::vector<std::string> failures;
  Spans layers;  // filled only by traced repetitions
};

/// Workload sizes: the full benchmark or the seconds-long self-test
/// variant.
struct RunOptions {
  /// Seed of this repetition's inputs (derived from --seed and the input
  /// index by main).
  std::uint64_t seed = 1;
  bool tiny = false;
  /// Directory for files the user path writes (checkpoints).
  std::string scratch_dir = ".";
};

/// Per-workload entry points.  `spans` non-null means a traced
/// repetition: spans around every call into a library module.
/// reference_fabric_mesh runs an input outside every measured span and
/// returns the outputs its repetitions must reproduce (the straight run a
/// checkpoint-restored run must match); with `spans` it also records the
/// router-stage shares of that (serial) run.
Sample run_sched_replay(const RunOptions& opt, Spans* spans);
Sample run_fabric_mesh(const RunOptions& opt, Spans* spans);
SimStats reference_fabric_mesh(const RunOptions& opt, Spans* spans);
Sample run_fabric_incast(const RunOptions& opt, Spans* spans);

}  // namespace wsbench
