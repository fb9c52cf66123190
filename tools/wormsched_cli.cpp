// wormsched — command-line front end for the library.
//
//   wormsched compare  --workload <spec> [--cycles N] [--schedulers a,b,c]
//   wormsched run      --workload <spec> --scheduler err [--cycles N]
//   wormsched gen-trace --workload <spec> --out trace.csv [--cycles N]
//   wormsched trace-gen --flows 100000 --cycles 100000 --out trace.wst
//   wormsched replay   --trace trace.csv --scheduler err
//   wormsched network  --topo mesh4x4 --arbiter err-cycles [--rate R]
//   wormsched soak     --topo mesh8x8 --cycles 5000000 --checkpoint s.wsnp
//
// `run`, `network` and `soak` accept --checkpoint <file> (write a snapshot
// at the end of the run), --checkpoint-every N (also write one every N
// cycles) and --restore <file> (continue a checkpointed run; a malformed
// or mismatched snapshot exits 2).
//
// Workload specs use the grammar of harness/workload_parse.hpp, e.g. the
// paper's Fig. 4 traffic is
//   'bern:0.0046:u1-64*2;bern:0.0046:u1-128;bern:0.0092:u1-64;bern:0.0046:u1-64*4'
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/snapshot.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/registry.hpp"
#include "harness/checkpoint.hpp"
#include "harness/network_sweep.hpp"
#include "harness/scenario.hpp"
#include "harness/soak.hpp"
#include "harness/sweep.hpp"
#include "harness/workload_parse.hpp"
#include "metrics/fairness.hpp"
#include "obs/manifest.hpp"
#include "obs/trace_cli.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_sink.hpp"
#include "sim/engine.hpp"
#include "traffic/binary_trace.hpp"
#include "traffic/trace_io.hpp"
#include "traffic/trace_synth.hpp"
#include "validate/faults.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"

using namespace wormsched;

namespace {

constexpr const char* kUsage =
    "wormsched <command> [options]\n"
    "\n"
    "commands:\n"
    "  compare    run several schedulers on one workload, print summary\n"
    "  run        run one scheduler, print per-flow detail\n"
    "  gen-trace  expand a workload spec into a trace (CSV or binary)\n"
    "  trace-gen  synthesize a multi-tenant arrival trace (binary;\n"
    "             elephant/mice mixes, tenant churn, incast bursts)\n"
    "  replay     replay a trace (CSV or binary) through one scheduler\n"
    "  network    drive a wormhole mesh/torus with synthetic traffic\n"
    "             or a replayed trace (--trace-in)\n"
    "  soak       long-horizon network run with windowed steady-state\n"
    "             metrics and checkpointed segments\n"
    "\n"
    "run 'wormsched <command> --help' for per-command options\n";

harness::WorkloadParse parse_or_die(const std::string& text) {
  std::string error;
  auto parsed = harness::parse_workload(text, &error);
  if (!parsed) {
    std::fprintf(stderr, "bad --workload: %s\n", error.c_str());
    std::exit(1);
  }
  return std::move(*parsed);
}

/// get_uint narrowed to the 32-bit config field it feeds; a value that
/// would wrap exits 2 like every other numeric option error.
std::uint32_t uint32_option(const CliParser& cli, const std::string& name) {
  const std::uint64_t value = cli.get_uint(name);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    std::fprintf(stderr, "option --%s: '%s' overflows a 32-bit option\n",
                 name.c_str(), cli.get(name).c_str());
    std::exit(2);
  }
  return static_cast<std::uint32_t>(value);
}

/// Exits 2 with one stderr line unless `name` is a scheduler the registry
/// builds (spellings are case-insensitive, as in core/registry.hpp).
void check_scheduler_or_exit(const std::string& name) {
  if (core::make_scheduler(name, core::SchedulerParams{}) != nullptr) return;
  std::string known;
  for (const auto n : core::scheduler_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  std::fprintf(stderr,
               "option --scheduler: unknown scheduler '%s' (known: %s)\n",
               name.c_str(), known.c_str());
  std::exit(2);
}

void add_checkpoint_options(CliParser& cli) {
  cli.add_option("checkpoint", "write a snapshot here when the run ends", "");
  cli.add_option("checkpoint-every",
                 "also write the snapshot every N cycles (0 = only at end)",
                 "0");
  cli.add_option("restore",
                 "continue from a snapshot written by --checkpoint", "");
}

/// Drives a resumable run to completion.  With --checkpoint-every the run
/// advances in N-cycle segments and rewrites the snapshot after each; the
/// final write always reflects the finished state.
template <typename Run>
void drive_with_checkpoints(Run& run, const std::string& path, Cycle every) {
  if (!path.empty() && every > 0) {
    while (!run.done()) {
      run.advance_to((run.now() / every + 1) * every);
      run.save_checkpoint(path);
    }
  } else {
    run.run_to_completion();
    if (!path.empty()) run.save_checkpoint(path);
  }
}

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> names;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) names.push_back(item);
  }
  return names;
}

void print_flow_detail(const harness::ScenarioResult& result) {
  AsciiTable table("per-flow results (" + result.scheduler_name + ")");
  table.set_header({"flow", "served flits", "served bytes", "mean delay",
                    "p99 delay"});
  for (std::uint32_t f = 0; f < result.num_flows(); ++f) {
    table.add_row(f, static_cast<long long>(result.service_log.total(FlowId(f))),
                  static_cast<unsigned long long>(
                      result.service_log.total_bytes(FlowId(f))),
                  fixed(result.delays.flow(FlowId(f)).mean(), 1),
                  fixed(result.delays.flow_quantile(FlowId(f), 0.99), 1));
  }
  table.print(std::cout);
}

int cmd_compare(int argc, const char* const* argv) {
  CliParser cli("compare schedulers on one workload");
  cli.add_option("workload", "workload spec (see workload_parse.hpp)",
                 "bern:0.01:u1-64*4");
  cli.add_option("cycles", "simulated cycles", "200000");
  cli.add_option("seed", "trace seed (base seed when sweeping)", "1");
  cli.add_option("seeds", "seeds to average over (1 = single trace)", "1");
  cli.add_option("schedulers", "comma-separated list (default: all)", "all");
  cli.add_flag("drain", "serve out all queues after the horizon");
  add_jobs_option(cli);
  if (!cli.parse(argc, argv)) return 1;

  const auto workload = parse_or_die(cli.get("workload"));
  const Cycle cycles = cli.get_uint("cycles");
  const std::size_t seeds = cli.get_uint("seeds");

  std::vector<std::string> names;
  if (cli.get("schedulers") == "all") {
    for (const auto n : core::scheduler_names()) names.emplace_back(n);
  } else {
    names = split_names(cli.get("schedulers"));
  }

  harness::ScenarioConfig config;
  config.horizon = cycles;
  config.drain = cli.get_flag("drain");
  config.weights = workload.weights;
  config.sched.drr_quantum = workload.spec.max_packet_length();

  if (seeds <= 1) {
    const auto trace =
        traffic::generate_trace(workload.spec, cycles, cli.get_uint("seed"));
    std::printf("workload: %zu flows, offered load %.3f flits/cycle, %zu "
                "packets generated\n\n",
                workload.spec.flows.size(), workload.spec.offered_load(),
                trace.entries.size());

    AsciiTable table("scheduler comparison, identical trace");
    table.set_header({"scheduler", "served flits", "mean delay", "p95 delay",
                      "FM[10%,end) flits"});
    for (const auto& name : names) {
      const auto result = harness::run_scenario(name, config, trace);
      const Flits fm = metrics::fairness_measure(
          result.service_log, result.activity, cycles / 10, cycles);
      table.add_row(result.scheduler_name,
                    static_cast<long long>(result.service_log.grand_total()),
                    fixed(result.delays.overall().mean(), 1),
                    fixed(result.delays.quantile(0.95), 1), fm);
    }
    table.print(std::cout);
    return 0;
  }

  harness::SweepOptions sweep;
  sweep.base_seed = cli.get_uint("seed");
  sweep.seeds = seeds;
  sweep.jobs = resolve_jobs(cli);
  std::printf("workload: %zu flows, offered load %.3f flits/cycle, "
              "%zu seeds x %llu cycles, %zu worker(s)\n\n",
              workload.spec.flows.size(), workload.spec.offered_load(),
              seeds, static_cast<unsigned long long>(cycles),
              sweep.jobs == 0 ? ThreadPool::hardware_workers() : sweep.jobs);
  AsciiTable table("scheduler comparison, mean +/- stddev over seeds");
  table.set_header({"scheduler", "served flits", "mean delay", "p95 delay",
                    "FM[10%,end) flits"});
  for (const auto& name : names) {
    const auto result = harness::sweep_scenario(
        name, config, workload.spec, sweep,
        [cycles](const harness::ScenarioResult& r, harness::SweepResult& out) {
          out.add("served",
                  static_cast<double>(r.service_log.grand_total()));
          out.add("mean_delay", r.delays.overall().mean());
          out.add("p95_delay", r.delays.quantile(0.95));
          out.add("fm", static_cast<double>(metrics::fairness_measure(
                            r.service_log, r.activity, cycles / 10, cycles)));
        });
    table.add_row(name, result.summary("served", 0),
                  result.summary("mean_delay", 1),
                  result.summary("p95_delay", 1), result.summary("fm", 0));
  }
  table.print(std::cout);
  return 0;
}

int cmd_run(int argc, const char* const* argv) {
  CliParser cli("run one scheduler with per-flow detail");
  cli.add_option("workload", "workload spec", "bern:0.01:u1-64*4");
  cli.add_option("scheduler", "scheduler name", "err");
  cli.add_option("cycles", "simulated cycles", "200000");
  cli.add_option("seed", "trace seed", "1");
  cli.add_flag("drain", "serve out all queues after the horizon");
  cli.add_choice_flag("audit",
                      "run the ERR invariant auditor during the run "
                      "(the mode spellings match the network subcommand; "
                      "the scheduler auditor has one implementation, so "
                      "anything but off enables it)",
                      {"incremental", "full", "off"}, "incremental", "off");
  validate::add_fault_options(cli);
  obs::add_trace_options(cli);
  add_checkpoint_options(cli);
  if (!cli.parse(argc, argv)) return 1;

  check_scheduler_or_exit(cli.get("scheduler"));
  const auto workload = parse_or_die(cli.get("workload"));
  harness::ScenarioConfig config;
  config.horizon = cli.get_uint("cycles");
  config.seed = cli.get_uint("seed");
  config.drain = cli.get_flag("drain");
  config.weights = workload.weights;
  config.sched.drr_quantum = workload.spec.max_packet_length();
  config.audit = cli.get("audit") != "off";
  validate::AuditLog audit_log;
  config.audit_log = &audit_log;

  std::string trace_error;
  const auto trace_request = obs::trace_request_from_cli(cli, &trace_error);
  if (!trace_request) {
    std::fprintf(stderr, "%s\n", trace_error.c_str());
    return 1;
  }
  std::optional<obs::TraceSink> sink;
  bool violation_window_dumped = false;
  obs::TraceProvenance provenance;  // filled in when the run is restored
  if (trace_request->enabled()) {
    obs::TraceSink::Options sink_options;
    sink_options.capacity = trace_request->capacity;
    sink_options.mask = trace_request->mask;
    sink.emplace(sink_options);
    config.trace = &*sink;
    // Auditor violations land in the trace, and the first one dumps the
    // event window around it while it is still in the ring (with the
    // snapshot provenance when the run was restored).
    audit_log.set_on_report([&](const validate::Violation& v) {
      sink->record(obs::TraceEvent::violation(
          sink->now(), sink->note(v.check + ": " + v.detail)));
      if (!violation_window_dumped && !trace_request->chrome_path.empty()) {
        violation_window_dumped = true;
        obs::write_chrome_trace_file(
            trace_request->chrome_path + ".violation.json", *sink,
            provenance.restored ? &provenance : nullptr);
      }
    });
  }

  harness::ScenarioSpec spec;
  spec.scheduler = cli.get("scheduler");
  spec.workload_text = cli.get("workload");
  spec.config = config;
  spec.faults = validate::fault_spec_from_cli(cli);

  const std::string restore_path = cli.get("restore");
  std::optional<harness::ScenarioRun> run;
  try {
    if (!restore_path.empty()) {
      const SnapshotFile file = harness::load_checkpoint_or_exit(restore_path);
      run.emplace(spec, file);
    } else {
      if (spec.faults.enabled)
        std::printf("%s\n", spec.faults.describe().c_str());
      run.emplace(spec);
    }
  } catch (const SnapshotError& e) {
    std::fprintf(stderr, "wormsched: %s: %s\n", restore_path.c_str(),
                 e.what());
    return 2;
  }
  if (run->restored()) {
    provenance = run->trace_provenance();
    std::printf("restored from %s at cycle %llu (original seed %llu)\n",
                restore_path.c_str(),
                static_cast<unsigned long long>(provenance.restore_cycle),
                static_cast<unsigned long long>(provenance.original_seed));
  }
  drive_with_checkpoints(*run, cli.get("checkpoint"),
                         cli.get_uint("checkpoint-every"));
  const auto result = run->finish();
  print_flow_detail(result);

  if (sink.has_value()) obs::export_trace(*trace_request, *sink);
  const std::string manifest_path = obs::manifest_path_from_cli(cli);
  if (!manifest_path.empty()) {
    obs::RunManifest manifest =
        obs::manifest_from_cli("wormsched run", cli, config.seed);
    if (run->restored()) {
      manifest.add_config("restored_from", restore_path);
      manifest.add_config("restored_from_sha", provenance.restored_from_sha);
    }
    manifest.add_counter("end_cycle", static_cast<double>(result.end_cycle));
    manifest.add_counter(
        "served_flits",
        static_cast<double>(result.service_log.grand_total()));
    manifest.add_counter("mean_delay", result.delays.overall().mean());
    manifest.add_counter(
        "audit_opportunities",
        static_cast<double>(result.audit_opportunities));
    manifest.violations = result.audit_violations;
    if (sink.has_value()) {
      manifest.trace_path = trace_request->chrome_path;
      manifest.trace_recorded = sink->recorded();
      manifest.trace_dropped = sink->dropped();
    }
    manifest.write_file(manifest_path);
  }

  if (config.audit) {
    std::printf("audit: %llu opportunities checked, %llu violation(s)\n",
                static_cast<unsigned long long>(result.audit_opportunities),
                static_cast<unsigned long long>(result.audit_violations));
    for (const auto& v : audit_log.kept())
      std::printf("  [%s] %s\n", v.check.c_str(), v.detail.c_str());
    if (!audit_log.clean()) return 2;
  }
  return 0;
}

/// Provenance JSON for generated binary traces (wormsched-trace-meta-v1).
std::string trace_meta_json(const std::string& tool, std::uint64_t seed) {
  std::ostringstream os;
  os << "{\"format\":\"wormsched-trace-meta-v1\",\"tool\":\"" << tool
     << "\",\"seed\":" << seed << "}";
  return os.str();
}

int cmd_gen_trace(int argc, const char* const* argv) {
  CliParser cli("expand a workload spec into a trace (CSV or binary)");
  cli.add_option("workload", "workload spec", "bern:0.01:u1-64*4");
  cli.add_option("cycles", "horizon", "100000");
  cli.add_option("seed", "seed", "1");
  cli.add_option("out", "output trace path", "trace.csv");
  cli.add_choice_flag("format", "output encoding", {"csv", "binary"}, "binary",
                      "csv");
  if (!cli.parse(argc, argv)) return 1;

  const auto workload = parse_or_die(cli.get("workload"));
  const auto trace = traffic::generate_trace(
      workload.spec, cli.get_uint("cycles"), cli.get_uint("seed"));
  if (cli.get("format") == "binary")
    traffic::save_binary_trace_file(
        cli.get("out"), trace,
        trace_meta_json("wormsched gen-trace", cli.get_uint("seed")));
  else
    traffic::save_trace_file(cli.get("out"), trace);
  std::printf("wrote %zu arrivals (%lld flits, %zu flows) to %s\n",
              trace.entries.size(),
              static_cast<long long>(trace.total_flits()), trace.num_flows,
              cli.get("out").c_str());
  return 0;
}

int cmd_trace_gen(int argc, const char* const* argv) {
  CliParser cli(
      "synthesize a multi-tenant arrival trace (binary): seed-hashed "
      "elephant/mice roles, optional tenant churn and incast bursts");
  cli.add_option("flows", "number of flows", "100000");
  cli.add_option("cycles", "injection horizon", "100000");
  cli.add_option("load", "aggregate offered load, flits/cycle", "0.9");
  cli.add_option("seed", "seed", "1");
  cli.add_option("elephant-fraction", "share of flows that are elephants",
                 "0.1");
  cli.add_option("elephant-share", "share of load elephants carry", "0.5");
  cli.add_option("churn-epoch",
                 "cycles per tenant-churn epoch (0 = no churn)", "0");
  cli.add_option("active-fraction",
                 "eligible share of each class within a churn epoch", "0.25");
  cli.add_option("incast-every",
                 "cycles between incast bursts (0 = no bursts)", "0");
  cli.add_option("incast-fanin", "flows firing together per burst", "32");
  cli.add_choice_flag(
      "scenario",
      "named preset overriding the knobs above: incast = frequent "
      "wide-fanin bursts (pair with --pattern hotspot when replaying); "
      "elephant-mice = a few elephants carrying most of the load over a "
      "mice swarm",
      {"none", "incast", "elephant-mice"}, "incast", "none");
  cli.add_option("out", "output binary trace path", "trace.wst");
  if (!cli.parse(argc, argv)) return 1;

  traffic::SynthSpec spec;
  spec.num_flows = cli.get_uint("flows");
  spec.horizon = cli.get_uint("cycles");
  spec.load = cli.get_double("load");
  spec.elephant_fraction = cli.get_double("elephant-fraction");
  spec.elephant_share = cli.get_double("elephant-share");
  spec.churn_epoch = cli.get_uint("churn-epoch");
  spec.active_fraction = cli.get_double("active-fraction");
  spec.incast_every = cli.get_uint("incast-every");
  spec.incast_fanin = cli.get_uint("incast-fanin");
  const std::string scenario = cli.get("scenario");
  if (scenario == "incast") {
    // Synchronized fan-in every few hundred cycles: the workload the
    // on/off-vs-credit and fat-tree adaptive differentials stress.
    spec.incast_every = 512;
    spec.incast_fanin = 64;
  } else if (scenario == "elephant-mice") {
    spec.elephant_fraction = 0.05;
    spec.elephant_share = 0.7;
  }
  if (spec.num_flows == 0 || spec.load <= 0.0) {
    std::fprintf(stderr, "--flows and --load must be positive\n");
    return 1;
  }

  // Stream straight into the encoder — a million-flow trace never exists
  // as a materialised vector here.
  const std::uint64_t seed = cli.get_uint("seed");
  traffic::BinaryTraceWriter writer(spec.num_flows);
  traffic::synthesize_trace(
      spec, seed,
      [&](const traffic::TraceEntry& e) { writer.append(e); });
  traffic::write_binary_trace_bytes(
      cli.get("out"),
      writer.finish(trace_meta_json("wormsched trace-gen", seed)));
  std::printf("wrote %llu arrivals (%lld flits, %llu flows) to %s\n",
              static_cast<unsigned long long>(writer.entry_count()),
              static_cast<long long>(writer.total_flits()),
              static_cast<unsigned long long>(spec.num_flows),
              cli.get("out").c_str());
  return 0;
}

/// Loads a trace by magic sniff: binary container or CSV.  Malformed
/// binary traces exit 2 (like snapshots), malformed CSV exits 1.
std::optional<traffic::Trace> load_trace_any(const std::string& path,
                                             int* exit_code) {
  try {
    if (traffic::is_binary_trace_file(path))
      return traffic::load_binary_trace_file(path);
    return traffic::load_trace_file(path);
  } catch (const SnapshotError& e) {
    std::fprintf(stderr, "wormsched: %s: %s\n", path.c_str(), e.what());
    *exit_code = 2;
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    *exit_code = 1;
  }
  return std::nullopt;
}

int cmd_replay(int argc, const char* const* argv) {
  CliParser cli("replay a trace (CSV or binary) through one scheduler");
  cli.add_option("trace", "input trace (CSV or binary)", "trace.csv");
  cli.add_option("scheduler", "scheduler name", "err");
  if (!cli.parse(argc, argv)) return 1;
  check_scheduler_or_exit(cli.get("scheduler"));

  // Both loaders reject malformed, header-only and unreadable traces
  // with a message naming the problem.
  int exit_code = 1;
  const auto loaded = load_trace_any(cli.get("trace"), &exit_code);
  if (!loaded) return exit_code;
  const traffic::Trace& trace = *loaded;
  if (trace.entries.empty()) {
    std::fprintf(stderr, "trace is empty\n");
    return 1;
  }
  harness::ScenarioConfig config;
  config.horizon = trace.entries.back().cycle + 1;
  config.drain = true;
  config.sched.drr_quantum = trace.max_observed_length();
  const auto result =
      harness::run_scenario(cli.get("scheduler"), config, trace);
  print_flow_detail(result);
  return 0;
}

/// Strict "--topo" parse: mesh<W>x<H>, torus<W>x<H> or fattree:<K>.
/// Malformed specs ("mesh8xjunk", "meshx8", "mesh0x4") print
/// "option --topo: ..." and exit 2 — the same contract as the numeric
/// getters — instead of silently truncating or throwing out of stoul.
wormhole::TopologySpec parse_topo_or_exit(const std::string& text) {
  std::string error;
  const auto spec = wormhole::parse_topology_spec(text, &error);
  if (!spec) {
    std::fprintf(stderr, "option --topo: %s\n", error.c_str());
    std::exit(2);
  }
  return *spec;
}

/// Shared flow-control / buffer-model / routing options for the network
/// and soak subcommands, so every spelling and default matches.
void add_flow_control_options(CliParser& cli) {
  cli.add_choice_flag("flow-control",
                      "backpressure scheme: per-VC credits or on/off "
                      "(threshold) signalling with high/low watermarks",
                      {"credit", "onoff"}, "onoff", "credit");
  cli.add_choice_flag("buffer-model",
                      "finite input buffers (backpressure active) or "
                      "infinite buffers (no backpressure at all)",
                      {"finite", "infinite"}, "infinite", "finite");
  cli.add_option("on-high",
                 "on/off only: occupancy that sends \"off\" (0 = auto, "
                 "buffer_depth minus the signal round-trip)",
                 "0");
  cli.add_option("on-low",
                 "on/off only: occupancy that sends \"on\" (0 = auto, "
                 "half of on-high)",
                 "0");
  cli.add_choice_flag("routing",
                      "dor = deterministic (XY / up-down); westfirst = "
                      "partially adaptive mesh turns; adaptive = westfirst "
                      "on mesh, adaptive up-down on fattree",
                      {"dor", "westfirst", "adaptive"}, "adaptive", "dor");
}

/// Applies the shared options onto a NetworkConfig whose `topo` is
/// already set.  Value constraints are checked once the whole config is
/// built (validate_or_exit); only the routing spelling that has no
/// meaning on the topology is rejected here.
void apply_flow_control_options(const CliParser& cli,
                                wormhole::NetworkConfig* config) {
  config->router.buffer_depth = uint32_option(cli, "buffers");
  config->router.flow_control = cli.get("flow-control") == "onoff"
                                    ? wormhole::FlowControl::kOnOff
                                    : wormhole::FlowControl::kCredit;
  config->router.buffer_model = cli.get("buffer-model") == "infinite"
                                    ? wormhole::BufferModel::kInfinite
                                    : wormhole::BufferModel::kFinite;
  config->router.on_high = uint32_option(cli, "on-high");
  config->router.on_low = uint32_option(cli, "on-low");
  const bool fattree =
      config->topo.kind == wormhole::TopologySpec::Kind::kFatTree;
  const std::string routing = cli.get("routing");
  if (routing == "dor") {
    config->routing = wormhole::NetworkConfig::Routing::kDor;
  } else if (routing == "westfirst") {
    config->routing = wormhole::NetworkConfig::Routing::kWestFirst;
  } else {  // adaptive: the topology's natural adaptive scheme
    if (config->topo.kind == wormhole::TopologySpec::Kind::kTorus) {
      std::fprintf(stderr,
                   "option --routing: torus has no adaptive scheme (use "
                   "dor)\n");
      std::exit(2);
    }
    config->routing = fattree
                          ? wormhole::NetworkConfig::Routing::kUpDownAdaptive
                          : wormhole::NetworkConfig::Routing::kWestFirst;
  }
}

/// Exits 2 with the config's first violation on one stderr line, before
/// anything is built from it (the constructors would abort instead).
void validate_or_exit(const wormhole::NetworkConfig& config) {
  const std::string error = config.validate();
  if (error.empty()) return;
  std::fprintf(stderr, "wormsched: invalid network config: %s\n",
               error.c_str());
  std::exit(2);
}

/// --rate is a per-node per-cycle packet probability.
double rate_or_exit(const CliParser& cli) {
  const double rate = cli.get_double("rate");
  if (!(rate >= 0.0 && rate <= 1.0)) {  // also rejects NaN
    std::fprintf(stderr, "option --rate: '%s' must be in [0, 1]\n",
                 cli.get("rate").c_str());
    std::exit(2);
  }
  return rate;
}

wormhole::PatternSpec::Kind pattern_kind(const std::string& name) {
  using Kind = wormhole::PatternSpec::Kind;
  return name == "transpose"  ? Kind::kTranspose
         : name == "bitcomp"  ? Kind::kBitComplement
         : name == "hotspot"  ? Kind::kHotspot
         : name == "neighbor" ? Kind::kNeighbor
                              : Kind::kUniform;
}

/// `network --trace-in` replays one trace through a bare fabric: it has
/// no seed sweep, checkpoint, auditor, fault model, event trace or
/// manifest, so asking for any of them exits 2 rather than being ignored.
void reject_trace_in_wiring(const CliParser& cli) {
  const std::pair<const char*, bool> wiring[] = {
      {"seeds", cli.get_uint("seeds") > 1},
      {"restore", !cli.get("restore").empty()},
      {"checkpoint", !cli.get("checkpoint").empty()},
      {"checkpoint-every", cli.get_uint("checkpoint-every") > 0},
      {"audit", cli.get("audit") != "off"},
      {"faults", cli.get_flag("faults")},
      {"trace", !cli.get("trace").empty()},
      {"trace-csv", !cli.get("trace-csv").empty()},
      {"manifest", !cli.get("manifest").empty()},
  };
  for (const auto& [name, given] : wiring) {
    if (!given) continue;
    std::fprintf(stderr, "option --%s: not supported with --trace-in\n",
                 name);
    std::exit(2);
  }
}

int cmd_network(int argc, const char* const* argv) {
  CliParser cli(
      "drive a wormhole mesh/torus/fat-tree with synthetic traffic");
  cli.add_option("topo", "mesh<W>x<H>, torus<W>x<H> or fattree:<K>",
                 "mesh4x4");
  cli.add_option("arbiter", "err-cycles|err-flits|rr|fcfs", "err-cycles");
  cli.add_option("pattern", "uniform|transpose|bitcomp|hotspot|neighbor",
                 "uniform");
  cli.add_option("rate", "packets per node per cycle", "0.01");
  cli.add_option("cycles", "injection cycles", "50000");
  cli.add_option("vcs", "virtual channel classes", "2");
  cli.add_option("buffers", "flit slots per input VC", "8");
  add_flow_control_options(cli);
  cli.add_option("seed", "traffic seed (base seed when sweeping)", "99");
  cli.add_option("seeds", "seeds to average over (1 = single run)", "1");
  cli.add_option("trace-in",
                 "replay an arrival trace (binary or CSV) instead of the "
                 "synthetic source; flow -> source node, destinations from "
                 "--pattern (single run only)",
                 "");
  cli.add_choice_flag("audit",
                      "attach the conservation + ERR auditors; incremental "
                      "audits O(touched) per cycle with periodic full-rescan "
                      "cross-checks, full rescans the fabric every check",
                      {"incremental", "full", "off"}, "incremental", "off");
  validate::add_fault_options(cli);
  obs::add_trace_options(cli);
  add_jobs_option(cli);
  add_network_parallel_options(cli);
  add_checkpoint_options(cli);
  if (!cli.parse(argc, argv)) return 1;

  wormhole::NetworkConfig config;
  config.topo = parse_topo_or_exit(cli.get("topo"));
  config.router.arbiter = cli.get("arbiter");
  config.router.num_vcs = uint32_option(cli, "vcs");
  apply_flow_control_options(cli, &config);
  {
    const NetworkParallelism par = resolve_network_parallelism(cli);
    config.threads = par.threads;
    config.shards = par.shards;
  }
  validate_or_exit(config);

  wormhole::NetworkTrafficSource::Config traffic_config;
  traffic_config.packets_per_node_per_cycle = rate_or_exit(cli);
  traffic_config.inject_until = cli.get_uint("cycles");
  traffic_config.pattern.kind = pattern_kind(cli.get("pattern"));
  harness::NetworkScenarioConfig point;
  point.network = config;
  point.traffic = traffic_config;
  point.faults = validate::fault_spec_from_cli(cli);
  {
    const std::string audit = cli.get("audit");
    point.audit = audit != "off";
    point.audit_config.mode = audit == "full"
                                  ? validate::AuditMode::kFull
                                  : validate::AuditMode::kIncremental;
  }
  std::string trace_error;
  const auto trace_request = obs::trace_request_from_cli(cli, &trace_error);
  if (!trace_request) {
    std::fprintf(stderr, "%s\n", trace_error.c_str());
    return 1;
  }
  point.trace = *trace_request;
  const std::string trace_in = cli.get("trace-in");
  if (!trace_in.empty()) reject_trace_in_wiring(cli);
  if (point.faults.enabled)
    std::printf("%s\n", point.faults.describe().c_str());

  if (!trace_in.empty()) {
    int exit_code = 1;
    const auto loaded = load_trace_any(trace_in, &exit_code);
    if (!loaded) return exit_code;
    wormhole::Network net(config);
    wormhole::TraceTrafficSource::Config src_config;
    src_config.trace = &*loaded;
    src_config.pattern = traffic_config.pattern;
    src_config.seed = cli.get_uint("seed");
    wormhole::TraceTrafficSource source(net, src_config);
    sim::Engine engine;
    engine.add_component(source);
    engine.add_component(net);
    // Same drain discipline as the scenario runner: injection window
    // times the drain factor bounds a fabric that never goes idle.
    const Cycle cap = source.inject_until() * 50 + 1000;
    const Cycle end = engine.run_until_idle(cap);
    std::printf("%s, %s, trace %s: injected %llu packets, delivered %llu, "
                "drained at cycle %llu\n",
                config.topo.describe().c_str(), cli.get("arbiter").c_str(),
                trace_in.c_str(),
                static_cast<unsigned long long>(source.generated()),
                static_cast<unsigned long long>(net.delivered_packets()),
                static_cast<unsigned long long>(end));
    std::printf("latency cycles: mean %.1f  min %.0f  max %.0f  p99 %.0f\n",
                net.latency_overall().mean(), net.latency_overall().min(),
                net.latency_overall().max(),
                net.latency_quantiles().quantile(0.99));
    return 0;
  }

  const std::string manifest_path = obs::manifest_path_from_cli(cli);
  const std::size_t seeds = cli.get_uint("seeds");
  const std::string restore_path = cli.get("restore");
  if (!restore_path.empty() && seeds > 1) {
    std::fprintf(stderr, "--restore requires --seeds 1\n");
    return 1;
  }
  if (seeds <= 1) {
    std::optional<harness::NetworkRun> run;
    try {
      if (!restore_path.empty()) {
        const SnapshotFile file =
            harness::load_checkpoint_or_exit(restore_path);
        run.emplace(point, file);
      } else {
        run.emplace(point, cli.get_uint("seed"));
      }
    } catch (const SnapshotError& e) {
      std::fprintf(stderr, "wormsched: %s: %s\n", restore_path.c_str(),
                   e.what());
      return 2;
    }
    if (run->restored()) {
      const obs::TraceProvenance& prov = run->trace_provenance();
      std::printf("restored from %s at cycle %llu (original seed %llu)\n",
                  restore_path.c_str(),
                  static_cast<unsigned long long>(prov.restore_cycle),
                  static_cast<unsigned long long>(prov.original_seed));
    }
    drive_with_checkpoints(*run, cli.get("checkpoint"),
                           cli.get_uint("checkpoint-every"));
    const bool restored = run->restored();
    const std::string restored_sha =
        restored ? run->trace_provenance().restored_from_sha : std::string();
    const auto result = run->finish();
    std::printf("%s, %s, %s: injected %llu packets, delivered %zu, drained "
                "at cycle %llu\n",
                config.topo.describe().c_str(), cli.get("arbiter").c_str(),
                traffic_config.pattern.describe().c_str(),
                static_cast<unsigned long long>(result.generated_packets),
                static_cast<std::size_t>(result.delivered_packets),
                static_cast<unsigned long long>(result.end_cycle));
    std::printf("latency cycles: mean %.1f  min %.0f  max %.0f\n",
                result.latency.mean(), result.latency.min(),
                result.latency.max());
    if (!manifest_path.empty()) {
      obs::RunManifest manifest =
          obs::manifest_from_cli("wormsched network", cli,
                                 cli.get_uint("seed"));
      if (restored) {
        manifest.add_config("restored_from", restore_path);
        manifest.add_config("restored_from_sha", restored_sha);
      }
      manifest.add_counter("generated_packets",
                           static_cast<double>(result.generated_packets));
      manifest.add_counter("delivered_packets",
                           static_cast<double>(result.delivered_packets));
      manifest.add_counter("delivered_flits",
                           static_cast<double>(result.delivered_flits));
      manifest.add_counter("end_cycle",
                           static_cast<double>(result.end_cycle));
      manifest.add_counter("mean_latency", result.latency.mean());
      manifest.add_counter("p99_latency", result.p99_latency);
      manifest.add_counter("audit_checks",
                           static_cast<double>(result.audit_checks));
      manifest.violations = result.audit_violations;
      if (point.trace.enabled()) {
        manifest.trace_path = point.trace.chrome_path;
        manifest.trace_recorded = result.trace_recorded;
        manifest.trace_dropped = result.trace_dropped;
      }
      manifest.write_file(manifest_path);
    }
    if (point.audit) {
      std::printf("audit: %llu cycle checks, %llu ERR opportunities, "
                  "%llu violation(s)\n",
                  static_cast<unsigned long long>(result.audit_checks),
                  static_cast<unsigned long long>(result.audit_opportunities),
                  static_cast<unsigned long long>(result.audit_violations));
      if (result.audit_violations != 0) return 2;
    }
    return 0;
  }

  harness::SweepOptions sweep;
  sweep.base_seed = cli.get_uint("seed");
  sweep.seeds = seeds;
  sweep.jobs = resolve_jobs(cli);
  const auto r = harness::sweep_network(
      point, sweep,
      [](const harness::NetworkScenarioResult& run,
         harness::SweepResult& out) {
        out.add("delivered", static_cast<double>(run.delivered_packets));
        out.add("drain_cycle", static_cast<double>(run.end_cycle));
        out.add("mean_latency", run.latency.mean());
        out.add("p99_latency", run.p99_latency);
      });
  std::printf("%s, %s, %s: %zu seeds, %zu worker(s)\n",
              config.topo.describe().c_str(), cli.get("arbiter").c_str(),
              traffic_config.pattern.describe().c_str(), seeds,
              sweep.jobs == 0 ? ThreadPool::hardware_workers() : sweep.jobs);
  std::printf("delivered packets: %s\n", r.summary("delivered", 0).c_str());
  std::printf("drain cycle:       %s\n", r.summary("drain_cycle", 0).c_str());
  std::printf("latency cycles:    mean %s  p99 %s\n",
              r.summary("mean_latency", 1).c_str(),
              r.summary("p99_latency", 0).c_str());
  if (!manifest_path.empty()) {
    obs::RunManifest manifest =
        obs::manifest_from_cli("wormsched network", cli, sweep.base_seed);
    manifest.add_counter("seeds", static_cast<double>(seeds));
    manifest.add_counter("mean_delivered_packets", r.mean("delivered"));
    manifest.add_counter("mean_drain_cycle", r.mean("drain_cycle"));
    manifest.add_counter("mean_latency", r.mean("mean_latency"));
    manifest.add_counter("mean_p99_latency", r.mean("p99_latency"));
    if (point.audit)
      manifest.violations = static_cast<std::uint64_t>(
          r.mean("audit_violations") * static_cast<double>(seeds));
    // Per-seed traces land next to the base path (trace.seedK.json).
    if (point.trace.enabled()) manifest.trace_path = point.trace.chrome_path;
    manifest.write_file(manifest_path);
  }
  if (point.audit) {
    std::printf("audit violations:  %s\n",
                r.summary("audit_violations", 0).c_str());
    if (r.mean("audit_violations") != 0.0) return 2;
  }
  return 0;
}

int cmd_soak(int argc, const char* const* argv) {
  CliParser cli(
      "long-horizon network soak: windowed steady-state metrics in O(1) "
      "memory, chained across checkpointed segments");
  cli.add_option("topo", "mesh<W>x<H>, torus<W>x<H> or fattree:<K>",
                 "mesh8x8");
  cli.add_option("arbiter", "err-cycles|err-flits|rr|fcfs", "err-cycles");
  cli.add_option("pattern", "uniform|transpose|bitcomp|hotspot|neighbor",
                 "uniform");
  cli.add_option("rate", "packets per node per cycle", "0.01");
  cli.add_option("cycles", "cycle target for this segment", "5000000");
  cli.add_option("horizon",
                 "injection horizon in cycles (0 = --cycles); fixed by the "
                 "first segment and carried in the checkpoint thereafter",
                 "0");
  cli.add_option("vcs", "virtual channel classes", "2");
  cli.add_option("buffers", "flit slots per input VC", "8");
  add_flow_control_options(cli);
  cli.add_option("seed", "traffic seed", "99");
  cli.add_option("window", "steady-state window width in cycles", "10000");
  cli.add_option("stable-windows",
                 "consecutive stable windows that declare warm-up done", "5");
  cli.add_option("rel-tol",
                 "relative mean-delay tolerance for window stability", "0.10");
  cli.add_choice_flag("audit",
                      "attach the conservation + ERR auditors for the "
                      "whole soak (spellings as in the network subcommand)",
                      {"incremental", "full", "off"}, "incremental", "off");
  validate::add_fault_options(cli);
  obs::add_trace_options(cli);
  add_network_parallel_options(cli);
  add_checkpoint_options(cli);
  if (!cli.parse(argc, argv)) return 1;

  harness::NetworkScenarioConfig point;
  point.network.topo = parse_topo_or_exit(cli.get("topo"));
  point.network.router.arbiter = cli.get("arbiter");
  point.network.router.num_vcs = uint32_option(cli, "vcs");
  apply_flow_control_options(cli, &point.network);
  {
    const NetworkParallelism par = resolve_network_parallelism(cli);
    point.network.threads = par.threads;
    point.network.shards = par.shards;
  }
  validate_or_exit(point.network);
  point.traffic.packets_per_node_per_cycle = rate_or_exit(cli);
  const Cycle cycles = cli.get_uint("cycles");
  const Cycle horizon = cli.get_uint("horizon");
  point.traffic.inject_until = horizon > 0 ? horizon : cycles;
  point.traffic.pattern.kind = pattern_kind(cli.get("pattern"));
  point.faults = validate::fault_spec_from_cli(cli);
  {
    const std::string audit = cli.get("audit");
    point.audit = audit != "off";
    point.audit_config.mode = audit == "full"
                                  ? validate::AuditMode::kFull
                                  : validate::AuditMode::kIncremental;
  }
  {
    std::string trace_error;
    const auto trace_request = obs::trace_request_from_cli(cli, &trace_error);
    if (!trace_request) {
      std::fprintf(stderr, "%s\n", trace_error.c_str());
      return 1;
    }
    point.trace = *trace_request;
  }
  if (point.faults.enabled)
    std::printf("%s\n", point.faults.describe().c_str());

  harness::SoakOptions options;
  options.cycles = cycles;
  options.checkpoint_every = cli.get_uint("checkpoint-every");
  options.checkpoint_path = cli.get("checkpoint");
  options.window.window = cli.get_uint("window");
  options.window.stable_windows = cli.get_uint("stable-windows");
  options.window.rel_tol = cli.get_double("rel-tol");

  const std::string restore_path = cli.get("restore");
  harness::SoakSummary summary;
  try {
    if (!restore_path.empty()) {
      const SnapshotFile file = harness::load_checkpoint_or_exit(restore_path);
      summary = harness::resume_soak(point, file, options);
    } else {
      summary = harness::run_soak(point, cli.get_uint("seed"), options);
    }
  } catch (const SnapshotError& e) {
    std::fprintf(stderr, "wormsched: %s: %s\n", restore_path.c_str(),
                 e.what());
    return 2;
  }

  std::printf("%s, %s, %s: soaked to cycle %llu%s\n",
              point.network.topo.describe().c_str(),
              cli.get("arbiter").c_str(),
              point.traffic.pattern.describe().c_str(),
              static_cast<unsigned long long>(summary.end_cycle),
              summary.restore_count > 0 ? " (resumed)" : "");
  std::printf("delivered %llu packets / %llu flits over %llu window(s)\n",
              static_cast<unsigned long long>(summary.delivered_packets),
              static_cast<unsigned long long>(summary.delivered_flits),
              static_cast<unsigned long long>(summary.windows_closed));
  if (summary.warmed_up) {
    std::printf("warm-up ended at cycle %llu; steady mean delay %.2f "
                "cycles, throughput %.4f flits/cycle (window stddev %.2f)\n",
                static_cast<unsigned long long>(summary.warmup_end),
                summary.steady_mean_delay, summary.steady_throughput,
                summary.window_mean_stddev);
  } else {
    std::printf("warm-up not reached within %llu windows\n",
                static_cast<unsigned long long>(summary.windows_closed));
  }
  if (summary.checkpoints_written > 0)
    std::printf("wrote %llu checkpoint(s) to %s\n",
                static_cast<unsigned long long>(summary.checkpoints_written),
                options.checkpoint_path.c_str());

  const std::string manifest_path = obs::manifest_path_from_cli(cli);
  if (!manifest_path.empty()) {
    obs::RunManifest manifest =
        obs::manifest_from_cli("wormsched soak", cli, cli.get_uint("seed"));
    if (!restore_path.empty())
      manifest.add_config("restored_from", restore_path);
    manifest.add_counter("end_cycle", static_cast<double>(summary.end_cycle));
    manifest.add_counter("delivered_packets",
                         static_cast<double>(summary.delivered_packets));
    manifest.add_counter("delivered_flits",
                         static_cast<double>(summary.delivered_flits));
    manifest.add_counter("windows_closed",
                         static_cast<double>(summary.windows_closed));
    manifest.add_counter("warmed_up", summary.warmed_up ? 1.0 : 0.0);
    manifest.add_counter("warmup_end",
                         static_cast<double>(summary.warmup_end));
    manifest.add_counter("steady_mean_delay", summary.steady_mean_delay);
    manifest.add_counter("steady_throughput", summary.steady_throughput);
    manifest.violations = summary.audit_violations;
    manifest.write_file(manifest_path);
  }
  if (point.audit) {
    std::printf("audit: %llu violation(s)\n",
                static_cast<unsigned long long>(summary.audit_violations));
    if (summary.audit_violations != 0) return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  const std::string command = argv[1];
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (command == "compare") return cmd_compare(sub_argc, sub_argv);
  if (command == "run") return cmd_run(sub_argc, sub_argv);
  if (command == "gen-trace") return cmd_gen_trace(sub_argc, sub_argv);
  if (command == "trace-gen") return cmd_trace_gen(sub_argc, sub_argv);
  if (command == "replay") return cmd_replay(sub_argc, sub_argv);
  if (command == "network") return cmd_network(sub_argc, sub_argv);
  if (command == "soak") return cmd_soak(sub_argc, sub_argv);
  if (command == "--help" || command == "-h") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n\n%s", command.c_str(), kUsage);
  return 1;
}
