#!/usr/bin/env python3
"""wormsched benchmark: one command, three workloads, gated outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-pins

Builds the benchmark binary (perfbench/CMakeLists.txt, Release) from the
sources of the checkout it sits in, runs the workload in its own process
for --seconds, applies the correctness gates, and prints one JSON object as
the last line of stdout: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See perfbench/README.md.
"""

import argparse
import copy
import fcntl
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_PATH = HERE / "pins.json"
DEFAULT_SEED = 1

WORKLOADS = ("sched_replay_1k", "fabric_mesh32_uniform", "fabric_mesh16_incast_t2")
# Distinct inputs simulated in every run (each at least once), so the
# simulated statistics average over enough traffic to be steady across
# seeds.  See README.md, "Steadiness".
INPUTS = {"sched_replay_1k": 40, "fabric_mesh32_uniform": 12,
          "fabric_mesh16_incast_t2": 18}

# (name, unit) in the order printed.  BENCHMARK.json lists the same names.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ns_per_flit_hop", "ns"),
    ("sim_cycles", "cycles"),
    ("sim_latency_mean_cycles", "cycles"),
    ("sim_latency_p99_cycles", "cycles"),
    ("delivered_frac", "ratio"),
    ("sim_fm_over_3m", "ratio"),
)

PER_LAYER = (
    ("metrics.activity_s", "s"),
    ("metrics.activity_records", "count"),
    ("metrics.fm_s", "s"),
    ("core.ns_per_flit", "ns"),
    ("core.sched_s", "s"),
    ("harness.scenario_self_s", "s"),
    ("harness.checkpoint_save_s", "s"),
    ("harness.checkpoint_restore_s", "s"),
    ("harness.checkpoint_bytes", "bytes"),
    ("traffic.synth_s", "s"),
    ("traffic.encode_s", "s"),
    ("traffic.decode_s", "s"),
    ("traffic.trace_bytes", "bytes"),
    ("traffic.inject_s", "s"),
    ("wormhole.construct_s", "s"),
    ("wormhole.tick_s", "s"),
    ("wormhole.flit_hops", "count"),
    ("wormhole.live_router_frac", "ratio"),
    ("wormhole.stage.wire_delivery_share", "ratio"),
    ("wormhole.stage.nic_inject_share", "ratio"),
    ("wormhole.stage.route_compute_share", "ratio"),
    ("wormhole.stage.vc_alloc_share", "ratio"),
    ("wormhole.stage.switch_traversal_share", "ratio"),
    ("wormhole.lanes", "count"),
    ("wormhole.cpu_over_wall", "ratio"),
    ("wormhole.sys_s", "s"),
    ("validate.audit_s", "s"),
    ("validate.audit_checks", "count"),
    ("validate.violations", "count"),
    ("sim.engine_self_s", "s"),
    ("bench.verify_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.unattributed_s", "s"),
    ("host.mem_probe_ms", "ms"),
    ("host.ref_kernel_ms", "ms"),
    ("host.raw_wall_s", "s"),
    ("tracing_overhead", "ratio"),
)

# Layer spans that partition a traced repetition's measured span, per
# workload (self-times: no span listed here contains another).  Their sum
# against bench.traced_wall_s is bench.unattributed_s.
SELF_TIMES = {
    "sched_replay_1k": ("harness.scenario_self_s", "core.sched_s",
                        "metrics.activity_s", "metrics.fm_s", "bench.verify_s"),
    "fabric_mesh32_uniform": ("wormhole.tick_s", "harness.checkpoint_save_s",
                              "harness.checkpoint_restore_s", "bench.verify_s"),
    "fabric_mesh16_incast_t2": ("sim.engine_self_s", "traffic.inject_s",
                                "wormhole.tick_s", "validate.audit_s",
                                "bench.verify_s"),
}

# Every host time a metric reports is scaled to a reference host speed:
# multiplied by REF_NOMINAL_S over the reference kernel's time around the
# same repetition (sample "ref_s"), so a repetition that ran while the
# shared host was slow counts as fast as the host allowed the kernel to
# run.  REF_NOMINAL_S is about one call on a quiet lane of the 4-vCPU Xeon
# VM the benchmark was tuned on.  See README.md, "Host-speed
# normalisation".
REF_NOMINAL_S = 0.015

# Simulated outputs pinned for the default seed; every one must repeat
# bit for bit under a performance-only change.
PINNED_SIM = ("cycles", "latency_mean", "latency_p99", "delivered_frac",
              "fm_over_3m", "arf_flits", "violations", "digest")
# Outputs a checkpoint-restored mesh run must share with the straight run.
RESTORE_SIM = ("cycles", "latency_mean", "latency_p99", "delivered_frac", "digest")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log(f"perfbench: {msg}")
    sys.exit(2)


# --- build --------------------------------------------------------------------

def build_dir():
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    return out / "perfbench"


def build():
    """Configures (once) and builds the Release binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_setup(f"no wormsched sources next to {HERE.name}/ (expected {ROOT / 'src'})")
    if shutil.which("cmake") is None:
        fail_setup("cmake not found")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(bdir / "CMakeFiles", ignore_errors=True)
                (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                fail_setup("cmake configure failed")
        if subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail_setup("build failed")
    return bdir / "wsbench"


# --- host descriptor ----------------------------------------------------------

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def source_digest():
    """sha256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


# --- running ------------------------------------------------------------------

def run_binary(binary, args, sha):
    env = dict(os.environ)
    # Checkpoint manifests embed the git SHA; supplying it keeps the save
    # path from spawning `git` inside the measured span.
    env["WORMSCHED_GIT_SHA"] = sha
    r = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                       text=True, env=env)
    if r.returncode != 0:
        fail_setup(f"wsbench {' '.join(args)} exited {r.returncode}")
    return r.stdout


def run_workload(binary, workload, seed, seconds, trace, tiny, sha):
    scratch = build_dir() / "run"
    scratch.mkdir(parents=True, exist_ok=True)
    inputs = 2 if tiny else INPUTS[workload]
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--inputs", str(inputs),
            "--scratch", str(scratch)]
    if tiny:
        args.append("--tiny")
    probe_before = float(run_binary(binary, ["--probe"], sha))
    doc = json.loads(run_binary(binary, args, sha))
    probe_after = float(run_binary(binary, ["--probe"], sha))
    doc["mem_probe_ms"] = [probe_before, probe_after]
    return doc


# --- gates --------------------------------------------------------------------

def per_input(samples, key):
    """Each input's first non-null `key` ("sim" or "reference"), in input
    order."""
    out = {}
    for s in samples:
        if s[key] is not None:
            out.setdefault(s["input"], s[key])
    return [out[i] for i in sorted(out)]


def aggregate(sims, refs):
    """One run's simulated outputs, pooled over its distinct inputs."""
    packets = sum(x["packets"] for x in sims)
    flits = sum(x["flits"] for x in sims)
    # The mesh checks Theorem 3 on its straight reference runs.
    theorem = refs or sims
    digest = hashlib.sha256(" ".join(x["digest"] for x in sims).encode())
    return {
        "cycles": statistics.fmean(x["cycles"] for x in sims),
        "latency_mean": sum(x["latency_mean"] * x["packets"] for x in sims) / packets,
        "latency_p99": statistics.fmean(x["latency_p99"] for x in sims),
        "delivered_frac": sum(x["delivered_frac"] * x["flits"] for x in sims) / flits,
        "fm_over_3m": statistics.fmean(x["fm_over_3m"] for x in theorem),
        "arf_flits": statistics.fmean(x["arf_flits"] for x in sims),
        "violations": sum(x["violations"] for x in sims + refs),
        "digest": digest.hexdigest()[:16],
    }


def theorem_and_audit(sim):
    bad = []
    if sim["violations"] != 0:
        bad.append(f"{sim['violations']:.0f} auditor violation(s)")
    if sim["fm_over_3m"] >= 1:
        bad.append(f"FM/3m {sim['fm_over_3m']} >= 1 (Theorem 3)")
    return bad


def check(doc, workload, seed, pins):
    """Applies the correctness gates.  Returns (attempted, failures, sim):
    every repetition is one operation, and `sim` is the run's pooled
    simulated outputs."""
    samples = doc["samples"]
    refs = {s["input"]: s["reference"] for s in samples if s["reference"] is not None}
    firsts = {}
    failures = []
    for i, s in enumerate(samples):
        sim = s["sim"]
        bad = list(s["failures"]) + theorem_and_audit(sim)
        if sim["delivered_frac"] != 1:
            bad.append(f"delivered_frac {sim['delivered_frac']} != 1")
        if sim != firsts.setdefault(s["input"], sim):
            bad.append("outputs differ from the input's first repetition")
        ref = refs.get(s["input"])
        if ref is not None:
            diff = [k for k in RESTORE_SIM if sim[k] != ref[k]]
            if diff:
                bad.append(f"restored run differs from the straight run: {diff}")
        if s["reference"] is not None:
            bad += [f"reference run: {b}" for b in theorem_and_audit(s["reference"])]
        if bad:
            failures.append(f"repetition {i} (input {s['input']}): " + "; ".join(bad))

    sims = per_input(samples, "sim")
    sim = aggregate(sims, per_input(samples, "reference"))
    if seed == DEFAULT_SEED and pins is not None:
        want = pins.get(workload)
        if want is None:
            failures.append("no pinned outputs for the default seed")
        else:
            diff = [k for k in PINNED_SIM if sim[k] != want["aggregate"][k]]
            if [x["digest"] for x in sims] != want["digests"]:
                diff.append("per-input digests")
            if diff:
                failures.append(f"differs from pinned outputs: {diff}")
    return len(samples), failures, sim


# --- reduction ----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def scaled(sample, key):
    """A repetition's host time `key`, scaled to the reference host speed."""
    return sample[key] * REF_NOMINAL_S / sample["ref_s"]


def end_to_end(doc, sim):
    timed = [s for s in doc["samples"][1:] if not s["traced"]]
    return {
        "wall_s": median([scaled(s, "wall_s") for s in timed]),
        "setup_s": median([scaled(s, "setup_s") for s in doc["samples"][1:]]),
        "cpu_s": median([scaled(s, "cpu_s") for s in timed]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "ns_per_flit_hop": median([scaled(s, "wall_s") * 1e9 / s["flit_hops"]
                                   for s in timed]),
        "sim_cycles": sim["cycles"],
        "sim_latency_mean_cycles": sim["latency_mean"],
        "sim_latency_p99_cycles": sim["latency_p99"],
        "delivered_frac": sim["delivered_frac"],
        "sim_fm_over_3m": sim["fm_over_3m"],
    }


def per_layer(doc, workload):
    rest = doc["samples"][1:]
    traced = [s for s in rest if s["traced"]]
    untraced = [s for s in rest if not s["traced"]]
    out = {name: 0.0 for name, _ in PER_LAYER}
    # Over the traced repetitions that recorded the layer (the mesh's
    # stage shares come only with its first-pass reference runs).
    for name in {n for s in traced for n in s["layers"]}:
        out[name] = median([s["layers"][name] for s in traced if name in s["layers"]])
    traced_wall = median([s["wall_s"] for s in traced])
    out["bench.traced_wall_s"] = traced_wall
    out["bench.unattributed_s"] = median(
        [s["wall_s"] - sum(s["layers"].get(n, 0.0) for n in SELF_TIMES[workload])
         for s in traced])
    out["wormhole.cpu_over_wall"] = median([s["cpu_s"] / s["wall_s"] for s in untraced])
    out["wormhole.sys_s"] = median([s["sys_s"] for s in untraced])
    out["host.mem_probe_ms"] = median(doc["mem_probe_ms"])
    out["host.ref_kernel_ms"] = median([s["ref_s"] * 1e3 for s in rest])
    out["host.raw_wall_s"] = median([s["wall_s"] for s in untraced])
    out["tracing_overhead"] = (median([scaled(s, "wall_s") for s in traced]) /
                               median([scaled(s, "wall_s") for s in untraced]))
    return out


def load_pins(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        fail_setup(f"cannot read pins {path}: {e}")


def measure(binary, workload, seed, seconds, trace, tiny, pins, sha):
    """One benchmark run: (doc, result line, gate failures, aggregate sim)."""
    doc = run_workload(binary, workload, seed, seconds, trace, tiny, sha)
    attempted, failures, sim = check(doc, workload, seed,
                                     pins["tiny" if tiny else "full"])
    values = per_layer(doc, workload) if trace else end_to_end(doc, sim)
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in (PER_LAYER if trace else END_TO_END)},
    }
    return doc, line, failures, sim


# --- modes --------------------------------------------------------------------

def write_pins(binary, sha):
    pins = {"seed": DEFAULT_SEED}
    for size, tiny in (("full", False), ("tiny", True)):
        pins[size] = {}
        for w in WORKLOADS:
            doc = run_workload(binary, w, DEFAULT_SEED, 0, 0, tiny, sha)
            _, failures, sim = check(doc, w, DEFAULT_SEED, None)
            if failures:
                fail_setup(f"not pinning {size} {w}: {failures}")
            pins[size][w] = {"aggregate": {k: sim[k] for k in PINNED_SIM},
                             "digests": [x["digest"] for x in per_input(doc["samples"], "sim")]}
            log(f"pinned {size} {w}: {pins[size][w]['aggregate']}")
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def self_test(binary, pins, sha):
    """Tiny variant of each workload: every metric printed with its unit,
    clean gates on the default and one other seed, and the gates firing
    on a planted wrong pin."""
    problems = []
    for w in WORKLOADS:
        for seed in (DEFAULT_SEED, 7):
            for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
                _, line, failures, _ = measure(binary, w, seed, 0, trace, True, pins, sha)
                got = {n: m["unit"] for n, m in line["metrics"].items()}
                if got != dict(units):
                    problems.append(f"{w} trace {trace}: metric names/units differ")
                if not line["correct"] or failures:
                    problems.append(f"{w} seed {seed} trace {trace}: {failures}")
        planted = copy.deepcopy(pins)
        planted["tiny"][w]["aggregate"]["cycles"] += 1
        _, line, failures, _ = measure(binary, w, DEFAULT_SEED, 0, 0, True, planted, sha)
        if line["correct"] or line["failed"] == 0:
            problems.append(f"{w}: a planted wrong pin was not caught")
        log(f"self-test {w}: planted pin caught as: {failures}")
    for p in problems:
        log(f"self-test FAILED: {p}")
    print(json.dumps({"self_test": "fail" if problems else "pass",
                      "problems": problems}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-pins", action="store_true",
                    help="re-record pins.json from the current sources")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail_setup("--seed and --seconds must be non-negative")

    binary = build()
    sha = git_sha()
    if args.write_pins:
        write_pins(binary, sha)
        return 0
    pins = load_pins(PINS_PATH)
    if args.self_test:
        return self_test(binary, pins, sha)
    if args.workload is None:
        fail_setup("--workload is required")

    doc, line, failures, sim = measure(binary, args.workload, args.seed,
                                       args.seconds, args.trace, False,
                                       pins, sha)
    host = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "compiler": doc["compiler"], "build_type": doc["build_type"],
            "git_sha": sha, "source_digest": source_digest(),
            "mem_probe_ms": doc["mem_probe_ms"]}
    print("host: " + json.dumps(host))
    print(f"digest: workload={args.workload} seed={args.seed} "
          f"delivered_stream={sim['digest']} arf_flits={sim['arf_flits']!r} "
          f"inputs={len(per_input(doc['samples'], 'sim'))} "
          f"repetitions={len(doc['samples'])}")
    for f in failures:
        print(f"FAILED: {f}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
