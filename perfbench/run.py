#!/usr/bin/env python3
"""Repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the simulator and dsa_serve from
source (perfbench/CMakeLists.txt, build tree under .bench_build/), runs
the workload, checks its outputs, prints a human-readable summary and, as
the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(BENCHMARK.json lists both; perfbench/README.md defines them). End-to-end
timings are scaled to a nominal host speed by a calibration kernel timed
all through the run (perfbench/src/calibrate.h, rules.host_scale). Exits 1 on
any correctness failure, 2 on a usage error.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import rules  # noqa: E402
import serve_workload  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_dsa", "sweep_static", "serve")
DEFAULT_SEED = 1
# Reserved for confirming later claims on inputs nobody tuned against.
HELD_OUT_SEED = 7919

END_TO_END = {
    "setup_s": "s",
    "sim_mips": "M_instr/s",
    "peak_rss_mb": "MB",
    "cold_sweep_s": "s",
    "warm.p50_ms": "ms",
    "warm.p90_ms": "ms",
    "max_rate_rps": "req/s",
}

# Per-layer metrics with their units. Buckets that do not apply to a
# workload read 0 there (the engine on sweep_static, serve.* on sweeps).
PER_LAYER = {
    "workloads.build_ms": "ms",
    "sim.submit_ms": "ms",
    "sim.run_ms": "ms",
    "sim.system_setup_ms": "ms",
    "sim.oracle_ms": "ms",
    "sim.serialize_ms": "ms",
    "sim.json_bytes": "bytes",
    "sim.batch_other_ms": "ms",
    "sim.loop_unattributed_ms": "ms",
    "cpu.dispatch_ms": "ms",
    "cpu.covered_exec_ms": "ms",
    "cpu.retired": "count",
    "cpu.ns_per_instr": "ns",
    "engine.observe_ms": "ms",
    "engine.takeovers": "count",
    "engine.detect_attempts": "count",
    "engine.takeover_ratio": "share",
    "engine.rollbacks": "count",
    "engine.analysis_instrs": "count",
    "mem.walk_ms": "ms",
    "mem.l1_accesses": "count",
    "mem.l1_miss_rate": "share",
    "mem.l2_miss_rate": "share",
    "neon.vector_instrs": "count",
    "serve.sweep_jobs_ms": "ms",
    "serve.key_digest_ms": "ms",
    "serve.cache_load_ms": "ms",
    "serve.cache_hit_ratio": "share",
    "serve.frame_ms": "ms",
    "serve.response_bytes": "bytes",
    "serve.unloaded_p50_ms": "ms",
    "serve.unattributed_ms": "ms",
    "serve.simulate_ms": "ms",
    "serve.cache_store_ms": "ms",
    "serve.stores": "count",
    "serve.store_failures": "count",
    "serve.cold_sweep_jobs_ms": "ms",
    "serve.cold_key_digest_ms": "ms",
    "serve.cold_unattributed_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.refused": "count",
    "client.late_p99_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.overhead_pct": "%",
    "error_rate": "share",
}


# In a traced run the buckets of a workload add up to its traced wall:
# (total, parts). The serve cold pass is split the same way.
BUCKETS = {
    "sweep": ("trace.wall_ms", (
        "workloads.build_ms", "sim.submit_ms", "sim.system_setup_ms",
        "cpu.dispatch_ms", "engine.observe_ms", "mem.walk_ms",
        "cpu.covered_exec_ms", "sim.loop_unattributed_ms", "sim.oracle_ms",
        "sim.serialize_ms", "sim.batch_other_ms")),
    "serve": ("trace.wall_ms", (
        "serve.sweep_jobs_ms", "serve.key_digest_ms", "serve.cache_load_ms",
        "serve.frame_ms", "serve.unattributed_ms", "serve.queue_wait_ms")),
    "serve_cold": ("cold_sweep_ms", (
        "serve.cold_sweep_jobs_ms", "serve.cold_key_digest_ms",
        "serve.simulate_ms", "serve.cache_store_ms",
        "serve.cold_unattributed_ms")),
}


def check_buckets(workload, layers):
    """Prints each bucket split; returns the splits that do not add up."""
    bad = []
    for name, (total, parts) in BUCKETS.items():
        if (name == "sweep") != workload.startswith("sweep"):
            continue
        missing = [k for k in (total,) + parts if k not in layers]
        if missing:
            bad.append(f"{name} buckets missing: {', '.join(missing)}")
            continue
        whole = layers[total]
        summed = sum(layers[p] for p in parts)
        print(f"buckets {name}: {' + '.join(parts)} = {summed:.4f} ms "
              f"of {total} {whole:.4f} ms")
        if abs(summed - whole) > 1e-6 * max(1.0, abs(whole)):
            bad.append(f"{name} buckets sum to {summed} not {whole}")
    return bad


class Context:
    def __init__(self, args, build_dir):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.perfbench = os.path.join(build_dir, "perfbench")
        self.dsa_serve = os.path.join(build_dir, "dsa_serve")
        # Relative to the checkout root (the working directory), which keeps
        # the daemon's socket path short.
        self.run_dir = os.path.relpath(os.path.join(
            os.path.dirname(build_dir), "run", args.workload), ROOT)


def finite(v):
    """JSON has no infinity: a latency that missed every limit (a failed
    request) is reported as 1e12."""
    return v if math.isfinite(v) else 1e12


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds perfbench and dsa_serve; returns the
    build directory. Output goes to a log, shown only on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "dsa_serve"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=850).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return build_dir


def run_sweep(ctx):
    proc = subprocess.run(
        [ctx.perfbench, "sweep", "--workload", ctx.workload, "--seed",
         str(ctx.seed), "--seconds", str(ctx.seconds), "--trace",
         "1" if ctx.trace else "0", "--out", ctx.run_dir],
        capture_output=True, text=True, timeout=175)
    sys.stderr.write(proc.stderr)
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail(f"perfbench sweep exited {proc.returncode} without a report")
    # Every pass, build and cell repeats the same work, so each time is the
    # best of its repetitions, scaled by the best calibration. The pass
    # wall is the best pass put together from its parts (perfbench sweep's
    # best_pass_s), so each part gets its own chance at the host's fast
    # state.
    scale = rules.host_scale(rep["cal_ms"], rep["nominal_cal_ms"])
    best = rep["best_pass_s"]
    wall = best * scale
    # warm_cell_ms holds the kernel cells of each warm pass in the same
    # order; each cell's best over the passes, then percentiles over the
    # cells.
    n = rep["kernel_cells"]
    warm = rep["warm_cell_ms"]
    if n == 0 or not warm or len(warm) % n:
        fail("perfbench sweep reported no whole warm passes")
    cell_ms = [min(warm[i::n]) * scale for i in range(n)]
    metrics = {
        "setup_s": min(rep["setup_s"]) * scale,
        "sim_mips": rep["pass_retired"][0] / wall / 1e6,
        "peak_rss_mb": rep["peak_rss_mb"],
        "cold_sweep_s": wall,
        "warm.p50_ms": rules.percentile(cell_ms, 50),
        "warm.p90_ms": rules.percentile(cell_ms, 90),
        "max_rate_rps": rep["cells"] / wall,
    }
    if len(set(rep["pass_retired"])) != 1:
        fail("passes retired different instruction counts")
    attempted, failed = rep["attempted"], rep["failed"]
    if proc.returncode != 0 and failed == 0:
        failed = 1
    lines = [f"fingerprint {ctx.workload} seed={ctx.seed}: "
             f"{rep['fingerprint']} ({rep['cells']} cells)",
             f"passes {len(rep['pass_wall_s'])}, "
             f"warm samples {len(warm)} over {n} kernel cells",
             f"host scale {scale:.4f} (calibration best "
             f"{min(rep['cal_ms']):.3f} ms, median "
             f"{rules.median(rep['cal_ms']):.3f} ms over {len(rep['cal_ms'])}, "
             f"nominal {rep['nominal_cal_ms']} ms); unscaled pass wall "
             f"{best:.4f} s best from parts, {min(rep['pass_wall_s']):.4f} s "
             f"best, {rules.median(rep['pass_wall_s']):.4f} s median"]
    return metrics, rep.get("layers", {}), attempted, failed, \
        rep["errors"], lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (held out: {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    # A SIGTERM unwinds through the finally blocks that stop dsa_serve.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    os.chdir(ROOT)
    t_start = time.perf_counter()
    ctx = Context(args, build())
    shutil.rmtree(ctx.run_dir, ignore_errors=True)
    os.makedirs(ctx.run_dir)

    if ctx.workload == "serve":
        try:
            metrics, layers, checker, lines = serve_workload.run(ctx)
        except serve_workload.ServeError as e:
            fail(str(e))
        attempted, failed, errors = (checker.attempted, checker.failed,
                                     checker.errors)
    else:
        metrics, layers, attempted, failed, errors, lines = run_sweep(ctx)

    for line in lines:
        print(line)
    if ctx.trace:
        broken = check_buckets(ctx.workload, layers)
        failed += len(broken)
        errors += broken
    error_rate = failed / attempted if attempted else 1.0
    print(f"error_rate {error_rate:.6g} share ({failed}/{attempted} failed)")
    if ctx.trace:
        layers["error_rate"] = error_rate
        chosen = {k: (layers.get(k, 0), u) for k, u in PER_LAYER.items()}
    else:
        chosen = {k: (metrics[k], u) for k, u in END_TO_END.items()}
    for name, (value, unit) in chosen.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print("model note: simulated cycles are unvalidated against hardware; "
          "the only reference figures are the paper's aggregate ratios "
          "(+32% vs AutoVec, +26% vs hand), printed by bench_a3_fig8_perf")
    print(f"run wall {time.perf_counter() - t_start:.1f} s")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": finite(v), "unit": u}
                    for k, (v, u) in chosen.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
