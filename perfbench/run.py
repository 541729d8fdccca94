#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload bfs-sym --seed 1 --seconds 30 --trace 0

It builds the worker in `perfbench/` (release profile, into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs the workload and prints,
as its last line, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

`--trace 0` measures the end-to-end metrics: every repetition of the job is
a fresh worker process, so its CPU time and peak resident memory belong to
that job alone, and the metrics are medians over the repetitions. The job
times are in reference seconds: each repetition is paired with a run of the
calibration kernel, and the run's median job times are scaled by
`CALIBRATION_REF_S` over the kernel's median times, so a machine that runs
slower for a while slows both sides alike.
`--trace 1` gives the per-layer metrics from untraced jobs, the engine run
directly with its timers off and on, and the per-layer microbenchmarks,
each in their own processes.

Every job's output is checked; `failed` counts the checks that did not hold
and `attempted` the checks made. Workloads, metrics and the per-layer to
end-to-end map are described in `perfbench/README.md`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

# name -> (kind, worker threads of the job)
WORKLOADS = {
    "bfs-sym": ("explore", 1),
    "bfs-spill": ("explore", 1),
    "serve": ("serve", 2),
}

# Every per-layer metric, with its unit, printed on every traced run.
TIMINGS = [
    ("executor.clone_ns", "ns"),
    ("executor.step_ns", "ns"),
    ("keys.canonical_key_ns", "ns"),
    ("keys.state_key_ns", "ns"),
    ("independence.pair_ns", "ns"),
    ("memory.invisible_pair_ns", "ns"),
    ("commutation.orders_commute_ns", "ns"),
    ("gate.successor_sleep_ns", "ns"),
    ("gate.persistent_set_ns", "ns"),
    ("store.keytable_insert_ns", "ns"),
    ("store.frontier_encode_ns", "ns"),
    ("store.frontier_decode_ns", "ns"),
    ("store.segment_write_mb_s", "MB/s"),
    ("store.segment_read_mb_s", "MB/s"),
    ("instance.step_ns", "ns"),
    ("serve.batch_us", "us"),
    ("serve.batcher_push_ns", "ns"),
    ("serve.loadgen_tick_ns", "ns"),
    ("serve.histogram_record_ns", "ns"),
    ("properties.predicate_ns", "ns"),
]
ENGINE_COUNTS = [
    ("engine.states", "count"),
    ("engine.expansions", "count"),
    ("engine.max_depth", "steps"),
    ("engine.frontier_peak", "count"),
    ("engine.approx_mb", "MB"),
    ("engine.spilled_entries", "count"),
    ("engine.states_per_s", "1/s"),
    ("engine.expansions_per_s", "1/s"),
]
SERVE_COUNTS = [("serve.steps", "count"), ("serve.batches", "count")]
PER_LAYER = (
    [(f"{name}.{q}", unit) for name, unit in TIMINGS for q in ("p50", "p99")]
    + [(f"{name}.n", "count") for name, _ in TIMINGS]
    + ENGINE_COUNTS
    + SERVE_COUNTS
    + [("engine.cpu_util", "ratio"), ("trace.overhead_s", "s")]
    + [("job.wall_s", "s"), ("calibration.kernel_s", "s")]
)
END_TO_END = [("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")]

# The calibration kernel's time on the reference machine: a time t measured
# while the kernel takes c is reported as t * CALIBRATION_REF_S / c.
CALIBRATION_REF_S = 0.1
MIN_REPS = 5
# Set-up is timed in several short bursts, each its own process, spread
# over the run. A burst's set-ups run at one of two speeds, about 1.5x
# apart, fixed for the whole process, and runs differ in how many bursts
# draw the slow one; the run reports the fastest burst, the set-up's own
# cost.
SETUP_PROCESSES = 20
# Repetitions of the untraced job, and of the engine run with its timers off
# and on, in a traced run.
TRACE_REPS = 5
# A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 150


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


class Worker:
    """Runs worker processes one at a time and measures each with wait4."""

    def __init__(self, binary, env):
        self.binary = binary
        self.env = env

    def run(self, *args):
        """Returns (output, wall_s, cpu_s, peak_rss_mib) of one process."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [self.binary, *map(str, args)], stdout=subprocess.PIPE, env=self.env
        )
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            die(f"worker {' '.join(map(str, args))} exited with {proc.returncode}")
        lines = stdout.decode().strip().splitlines()
        if not lines:
            die(f"worker {' '.join(map(str, args))} printed nothing")
        output = json.loads(lines[-1])
        return output, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


class Checks:
    """Output checks: `attempted` made, `failed` did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, holds, what, weight=1):
        self.attempted += weight
        if not holds:
            self.failed += weight
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def share(self):
        return self.failed / self.attempted if self.attempted else 0.0


def check_explore_job(out, checks, workload):
    checks.expect(out["records"] == 1, f"{workload}: one record")
    checks.expect(
        out["verified"] == 1 and out["unverified"] == 0,
        f"{workload}: the cell is verified and not truncated",
    )
    checks.expect(out["safety_violations"] == 0, f"{workload}: no safety violation")


def check_serve_job(out, checks):
    proposals = out["proposals"]
    checks.expect(
        proposals == out["expected_proposals"], "serve: every scheduled proposal issued"
    )
    undrained = 0 if out["drained"] else proposals - out["answered"]
    bad = (
        out["validity_violations"]
        + out["agreement_violations"]
        + out["unfinished"]
        + undrained
    )
    checks.expect(bad == 0, f"serve: {bad} proposals violated, unfinished or undrained", proposals)


def check_replay(replay, outs, checks):
    """The service's decided log must equal the traced single-threaded
    replay's, and the replay itself must be safe and finished."""
    checks.expect(
        replay["validity_violations"] + replay["agreement_violations"] + replay["unfinished"]
        == 0,
        "serve: the replay is safe and finished",
    )
    for out in outs:
        checks.expect(
            out["fingerprint"] == replay["fingerprint"],
            "serve: decided log equals the single-threaded replay's",
        )


def check_engine(workload, engine, record, checks):
    """The engine run directly is verified, visits the campaign record's
    states and, on bfs-spill, really spills."""
    checks.expect(engine["verified"], f"{workload}: the direct exploration is verified")
    checks.expect(
        engine["metrics"]["engine.states"]["value"] == record["explored_states"],
        f"{workload}: direct and campaign state counts agree",
    )
    if workload == "bfs-spill":
        checks.expect(
            engine["metrics"]["engine.spilled_entries"]["value"] > 0,
            "bfs-spill: the frontier spilled",
        )


def check_references(worker, workload, seed, outs, checks):
    """Cross-repetition checks: explore records repeat byte for byte, and
    bfs-spill's equals bfs-sym's and it spills; the service matches its
    replay."""
    if WORKLOADS[workload][0] == "serve":
        check_replay(worker.run("traced", "serve", seed)[0], outs, checks)
        return
    first = outs[0]["record"]
    for out in outs[1:]:
        checks.expect(out["record"] == first, f"{workload}: records repeat byte for byte")
    if workload == "bfs-spill":
        reference = worker.run("job", "bfs-sym", seed)[0]["record"]
        checks.expect(first == reference, "bfs-spill: record is byte-identical to bfs-sym's")
        engine = worker.run("engine", workload, seed)[0]
        check_engine(workload, engine, json.loads(first), checks)


def check_calibration(outs, checks):
    """The kernel does the same work on every run."""
    for out in outs:
        checks.expect(out == outs[0], "calibration: the kernel's checksum repeats")


def check_job(workload, out, checks):
    if WORKLOADS[workload][0] == "explore":
        check_explore_job(out, checks, workload)
    else:
        check_serve_job(out, checks)


def end_to_end(worker, workload, seed, seconds, checks):
    start = time.perf_counter()
    setups, outs, walls, cpus, rsses = [], [], [], [], []
    calibrations, cal_walls, cal_cpus = [], [], []
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_PROCESSES and elapsed >= len(setups) * seconds / SETUP_PROCESSES:
            setups.append(worker.run("setup", workload, seed)[0]["setup_s"])
        cal, cal_wall, cal_cpu, _ = worker.run("calibrate")
        calibrations.append(cal)
        cal_walls.append(cal_wall)
        cal_cpus.append(cal_cpu)
        out, wall, cpu, rss = worker.run("job", workload, seed)
        check_job(workload, out, checks)
        outs.append(out)
        walls.append(wall)
        cpus.append(cpu)
        rsses.append(rss)
        # Start another repetition only if it should end within the budget.
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            break
    while len(setups) < SETUP_PROCESSES:
        setups.append(worker.run("setup", workload, seed)[0]["setup_s"])
    check_references(worker, workload, seed, outs, checks)
    check_calibration(calibrations, checks)
    metrics = {
        "wall_ref_s": statistics.median(walls) * CALIBRATION_REF_S / statistics.median(cal_walls),
        "cpu_ref_s": statistics.median(cpus) * CALIBRATION_REF_S / statistics.median(cal_cpus),
        "peak_rss_mb": statistics.median(rsses),
        "setup_s": min(setups),
    }
    extra = {
        "reps": len(walls),
        "wall_s": statistics.median(walls),
        "kernel_s": statistics.median(cal_walls),
    }
    if workload == "serve":
        extra["proposals_per_s"] = outs[0]["proposals"] / extra["wall_s"]
    else:
        extra["states"] = json.loads(outs[0]["record"])["explored_states"]
    return metrics, extra


def traced(worker, workload, seed, checks):
    kind, workers = WORKLOADS[workload]
    jobs, calibrations = [], []
    for _ in range(TRACE_REPS):
        calibrations.append(worker.run("calibrate"))
        jobs.append(worker.run("job", workload, seed))
    for out, _, _, _ in jobs:
        check_job(workload, out, checks)
    check_calibration([cal for cal, _, _, _ in calibrations], checks)
    cpu_util = statistics.median(cpu / (wall * workers) for _, wall, cpu, _ in jobs)
    # The engine with its timers off and on, alternating, so both sides see
    # the same stretch of the machine's drift.
    plain, timed = [], []
    for _ in range(TRACE_REPS):
        plain.append(worker.run("engine", workload, seed)[0])
        timed.append(worker.run("traced", workload, seed)[0])
    wall_plain = statistics.median(out["wall_s"] for out in plain)
    wall_timed = statistics.median(out["wall_s"] for out in timed)
    layer = worker.run("layers", workload, seed)[0]
    metrics = {name: 0.0 for name, _ in ENGINE_COUNTS + SERVE_COUNTS}
    metrics.update({name: entry["value"] for name, entry in layer["metrics"].items()})
    metrics.update({name: entry["value"] for name, entry in timed[0]["metrics"].items()})
    metrics["engine.cpu_util"] = cpu_util
    metrics["job.wall_s"] = statistics.median(wall for _, wall, _, _ in jobs)
    metrics["calibration.kernel_s"] = statistics.median(wall for _, wall, _, _ in calibrations)
    metrics["trace.overhead_s"] = wall_timed - wall_plain
    if kind == "explore":
        record = json.loads(jobs[0][0]["record"])
        for out in plain + timed:
            check_engine(workload, out, record, checks)
        metrics["engine.states_per_s"] = metrics["engine.states"] / wall_plain
        metrics["engine.expansions_per_s"] = metrics["engine.expansions"] / wall_plain
    else:
        for out in plain + timed:
            check_replay(out, [job for job, _, _, _ in jobs], checks)
    return metrics, {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        die("the seed must be a non-negative integer")

    root = os.getcwd()
    for needed in ("perfbench/Cargo.toml", "crates/sweep/Cargo.toml", "crates/serve/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, needed)):
            die(f"{needed} not found: run from the root of the repository")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        die("building the worker failed")
    binary = os.path.join(target, "release", "perfbench")
    # Spill segments and the store benchmark's files stay in the checkout.
    scratch = os.path.join(target, "perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    worker = Worker(binary, dict(os.environ, TMPDIR=scratch))

    checks = Checks()
    try:
        if args.trace:
            metrics, extra = traced(worker, args.workload, args.seed, checks)
            names = PER_LAYER
        else:
            metrics, extra = end_to_end(worker, args.workload, args.seed, args.seconds, checks)
            names = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    missing = [name for name, _ in names if name not in metrics]
    if missing:
        die(f"metrics missing: {', '.join(missing)}")

    summary = " ".join(f"{name}={metrics[name]:.6g} {unit}" for name, unit in names[:4])
    if not args.trace:
        summary += " " + " ".join(f"{k}={v:.6g}" for k, v in extra.items())
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {summary} "
        f"failed_share={checks.share():.6g} ({checks.failed}/{checks.attempted})"
    )
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
