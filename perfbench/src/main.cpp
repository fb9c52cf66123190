// wsbench: runs one benchmark workload for a time budget and prints every
// repetition's measurements as one JSON document on stdout.  run.py (next
// to this directory) builds it, runs it in its own process per workload,
// applies the correctness gates and reduces the repetitions to metrics.
//
//   wsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --inputs <k> [--tiny] [--scratch <dir>]
//   wsbench --probe      # times the memory reference kernel, prints ms
//
// Repetition r runs input r mod k, whose seed is derived from --seed and
// the input index, so one run simulates k distinct inputs (every one at
// least once) and its simulated statistics cover all of them.  A workload
// with a reference run (the mesh's straight, never-checkpointed run) runs
// it once per input, untimed, and prints it with the input's first
// repetition.
// Repetitions run back to back until --seconds have elapsed (the first
// one is a warm-up the timing reduction skips).  The host-speed reference
// kernel runs right before and right after each one, on as many threads
// as the workload ticks with, and the mean of the two is printed with it.  With --trace 1 they
// alternate traced and untraced, so the tracing overhead is measured in
// the same process and host phase.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace wsbench;

void print_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void print_sim(const SimStats& sim) {
  std::printf(
      "{\"packets\": %.17g, \"flits\": %.17g, \"cycles\": %.17g, "
      "\"latency_mean\": %.17g, \"latency_p99\": %.17g, "
      "\"delivered_frac\": %.17g, \"fm_over_3m\": %.17g, \"arf_flits\": "
      "%.17g, \"violations\": %.17g, \"digest\": ",
      sim.packets, sim.flits, sim.cycles, sim.latency_mean, sim.latency_p99,
      sim.delivered_frac, sim.fm_over_3m, sim.arf_flits, sim.violations);
  print_string(sim.digest);
  std::putchar('}');
}

void print_sample(const Sample& s, std::uint64_t input, bool traced,
                  const SimStats* reference) {
  std::printf(
      "{\"input\": %llu, \"traced\": %s, \"setup_s\": %.17g, \"wall_s\": "
      "%.17g, \"cpu_s\": %.17g, \"sys_s\": %.17g, \"flit_hops\": %.17g, "
      "\"ref_s\": %.17g, \"sim\": ",
      static_cast<unsigned long long>(input), traced ? "true" : "false",
      s.setup_s, s.wall_s, s.cpu_s, s.sys_s, s.flit_hops, s.ref_s);
  print_sim(s.sim);
  std::printf(", \"failures\": [");
  for (std::size_t i = 0; i < s.failures.size(); ++i) {
    if (i != 0) std::printf(", ");
    print_string(s.failures[i]);
  }
  std::printf("], \"layers\": {");
  bool first = true;
  for (const auto& [name, value] : s.layers.values()) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_string(name);
    std::printf(": %.17g", value);
  }
  std::printf("}, \"reference\": ");
  if (reference != nullptr) {
    print_sim(*reference);
  } else {
    std::printf("null");
  }
  std::putchar('}');
}

/// splitmix64 of (seed, input): independent, reproducible input seeds.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t input) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + input + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int usage() {
  std::fprintf(stderr,
               "usage: wsbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --inputs <k> [--tiny] [--scratch <dir>] | "
               "--probe\n");
  return 2;
}

bool parse_uint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions opt;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  std::uint64_t inputs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--probe") {
      std::printf("%.6f\n", mem_probe_ms());
      return 0;
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--scratch" && has_value) {
      opt.scratch_dir = argv[++i];
    } else if (arg == "--seed" && has_value) {
      if (!parse_uint(argv[++i], &opt.seed)) return usage();
    } else if (arg == "--seconds" && has_value) {
      if (!parse_uint(argv[++i], &seconds)) return usage();
    } else if (arg == "--inputs" && has_value) {
      if (!parse_uint(argv[++i], &inputs) || inputs == 0) return usage();
    } else if (arg == "--trace" && has_value) {
      if (!parse_uint(argv[++i], &trace) || trace > 1) return usage();
    } else {
      return usage();
    }
  }

  Sample (*run)(const RunOptions&, Spans*) = nullptr;
  SimStats (*reference)(const RunOptions&, Spans*) = nullptr;
  unsigned lanes = 2;  // both fabric workloads tick at 2 threads
  if (workload == "sched_replay_1k") {
    run = run_sched_replay;
    lanes = 1;
  }
  if (workload == "fabric_mesh32_uniform") {
    run = run_fabric_mesh;
    reference = reference_fabric_mesh;
  }
  if (workload == "fabric_mesh16_incast_t2") run = run_fabric_incast;
  if (run == nullptr) return usage();

  std::printf("{\"workload\": ");
  print_string(workload);
  std::printf(", \"compiler\": ");
  print_string(WSBENCH_COMPILER);
  std::printf(", \"build_type\": ");
  print_string(WSBENCH_BUILD_TYPE);
  std::printf(", \"samples\": [");
  const double start = now_s();
  std::uint64_t reps = 0;
  // Every input once; past the warm-up, at least one repetition of each
  // kind (traced and untraced).
  const std::uint64_t min_reps = std::max<std::uint64_t>(inputs, trace + 2);
  while (reps < min_reps ||
         now_s() - start < static_cast<double>(seconds)) {
    // Alternate per repetition; with an even input count also flip the
    // phase on every pass, so each input runs both traced and untraced.
    const std::uint64_t flip = inputs % 2 == 0 ? reps / inputs : 0;
    const bool traced = trace != 0 && (reps + flip) % 2 == 0;
    RunOptions in = opt;
    in.seed = input_seed(opt.seed, reps % inputs);
    Spans spans;
    const double ref_before = ref_kernel_s(lanes);
    Sample s = run(in, traced ? &spans : nullptr);
    s.ref_s = (ref_before + ref_kernel_s(lanes)) / 2;
    // On the first pass, the workload's reference run of the input
    // (outside every measured span), which its repetitions must match.
    std::optional<SimStats> ref;
    if (reference != nullptr && reps < inputs)
      ref = reference(in, traced ? &spans : nullptr);
    s.layers = spans;
    std::printf("%s", reps == 0 ? "" : ", ");
    print_sample(s, reps % inputs, traced, ref ? &*ref : nullptr);
    std::fflush(stdout);
    ++reps;
  }
  std::printf("], \"peak_rss_mb\": %.17g}\n", peak_rss_mb());
  return 0;
}
