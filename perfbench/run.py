#!/usr/bin/env python3
"""The repository benchmark: measured training throughput of
core::run_distributed on the alpha-beta-emulated fabric, with per-layer
attribution from a separate traced run.

    python3 perfbench/run.py --workload embrace-latency --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call builds perfbench_harness
(the repository's libraries plus perfbench/harness.cpp) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Every training
run is a child process under a wall-clock watchdog; a run that crashes,
times out or fails the correctness gate counts in `failed`.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics;
BENCHMARK.json names both sets and their units. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--smoke runs every workload for a few steps through both modes and checks
that every metric BENCHMARK.json names is reported with its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKERS  # noqa: E402

# A run must end within 180 s of its start (the build aside).
RUN_BUDGET_S = 160.0
SMOKE_BUDGET_S = 600.0
CHILD_TIMEOUT_S = 60.0
# 1-step runs per timed child, each a set-up sample.
SETUP_REPS = 3


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns (binary, build dir)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bdir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    generator = []
    if shutil.which("ninja") and not (bdir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir), *generator,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "--target",
                    "perfbench_harness", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return bdir / "perfbench_harness", bdir


class Harness:
    """Runs harness children under a watchdog and a whole-run deadline."""

    def __init__(self, exe, deadline):
        self.exe = exe
        self.deadline = deadline

    def call(self, mode, workload, seed, **extra):
        """The child's JSON result, or None if it failed or timed out."""
        argv = [str(self.exe), mode, f"seed={seed}",
                *workload.args(), *(f"{k}={v}" for k, v in extra.items())]
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            log(f"{mode} {workload.name} seed={seed}: no time left")
            return None
        try:
            r = subprocess.run(argv, capture_output=True, text=True,
                               timeout=timeout)
        except subprocess.TimeoutExpired:
            log(f"{mode} {workload.name} seed={seed}: killed after {timeout:.0f} s")
            return None
        if r.returncode != 0:
            log(f"{mode} {workload.name} seed={seed}: exit {r.returncode}: "
                f"{r.stderr.strip()[-2000:]}")
            return None
        return json.loads(r.stdout.strip().splitlines()[-1])


def final_loss(losses):
    """Mean global loss over the trailing FINAL_LOSS_TAIL of the steps. The
    last step alone is one small batch; its spread across seeds (about 20%)
    would swamp any usable bound."""
    tail = max(1, round(len(losses) * workloads.FINAL_LOSS_TAIL))
    return sum(losses[-tail:]) / tail


class Gate:
    """Correctness gate over every training run of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.oracle = {}   # (seed, steps) -> oracle losses
        self.first = {}    # (seed, steps) -> losses of the first run
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, why):
        self.failed += 1
        self.problems.append(why)
        log(why)

    def check(self, seed, losses):
        """Counts one training run; False if it fails the gate."""
        w = self.workload
        self.attempted += 1
        key = (seed, len(losses))
        oracle = self.oracle.get(key)
        if oracle is None:
            self.fail(f"{w.name} seed={seed}: no oracle to check against")
            return False
        if w.lossy:
            first = self.first.setdefault(key, losses)
            if losses != first:
                self.fail(f"{w.name} seed={seed}: lossy losses did not repeat "
                          "bit for bit")
                return False
            gap = abs(final_loss(losses) - final_loss(oracle))
            if gap > workloads.TOPK_LOSS_BAND:
                self.fail(f"{w.name} seed={seed}: final loss {gap:.4f} from "
                          f"the oracle (band {workloads.TOPK_LOSS_BAND})")
                return False
            return True
        for step, (got, want) in enumerate(zip(losses, oracle)):
            if abs(got - want) > workloads.ORACLE_RTOL * max(1.0, abs(want)):
                self.fail(f"{w.name} seed={seed}: step {step} loss {got} != "
                          f"oracle {want}")
                return False
        return len(losses) == len(oracle)

    def run(self, harness, mode, seed, **extra):
        """One counted training child; its result, or None if it failed."""
        r = harness.call(mode, self.workload, seed, **extra)
        if r is None:
            self.attempted += 1
            self.fail(f"{self.workload.name} seed={seed}: {mode} run failed")
            return None
        return r if self.check(seed, r["losses"]) else None

    def add_oracle(self, harness, seed, steps):
        r = harness.call("oracle", self.workload, seed, steps=steps)
        if r is None:
            self.attempted += 1
            self.fail(f"{self.workload.name} seed={seed}: oracle run failed")
        else:
            self.oracle[(seed, steps)] = r["losses"]


def end_to_end(harness, w, seed, seconds, steps):
    """Untraced runs: one lone run, then a fixed number of timed runs.

    The lone run is an S-step run alone in a fresh process, so its peak RSS
    is the run's own. A timed run makes SETUP_REPS 1-step runs and then one
    S-step run in one process, cycling over the sub-seeds; its median
    1-step run splits set-up from the steady steps. How many timed runs
    there are depends only on --seconds and the workload, never on how fast
    the program runs. The wire counts and final loss repeat for a sub-seed,
    so they come from its first timed run.

    tokens_per_s is the TOKENS_LEVEL percentile (workloads.py) of the
    timed runs' rates, not their median: on a shared host, other tenants'
    CPU steal only ever slows a run down, often for tens of seconds, so the
    fast end is the steadier estimate of the program's own speed. setup_s is the median of
    all the timed runs' set-up samples: their 1-step walls, each less one
    steady step of its own run. (Set-up varies by tens of percent within
    one process even on an idle host, so it is not steal that spreads it;
    on a 4-vCPU host the fastest 1-step run per child spread more across
    runs than this median did.)"""
    gate = Gate(w)
    seeds = workloads.subseeds(seed)
    for s in seeds:
        gate.add_oracle(harness, s, steps)
    lone = gate.run(harness, "train", seeds[0], steps=steps, setup_reps=0)
    rates, setups, first = [], [], {}
    for i in range(w.timed_runs(seconds)):
        s = seeds[i % len(seeds)]
        r = gate.run(harness, "train", s, steps=steps, setup_reps=SETUP_REPS)
        if r is not None:
            rates.append(stats.steady_rate(
                r["tokens"], stats.median(r["wall_1"]), r["wall_s"]))
            setups.extend(stats.split_setup(x, r["wall_s"], steps)[0]
                          for x in r["wall_1"])
            first.setdefault(s, r)
    if lone is None or not rates:
        return gate, {}
    log(f"{w.name}: {len(rates)} timed runs, tokens/s "
        + " ".join(f"{x:.0f}" for x in rates))
    runs = first.values()
    return gate, {
        "tokens_per_s": stats.nearest_rank(sorted(rates),
                                           workloads.TOKENS_LEVEL),
        "setup_s": stats.median(setups),
        "wire_bytes_per_step": stats.median(
            [(r["fabric_bytes"] + r["ps_bytes"]) / steps for r in runs]),
        "wire_msgs_per_step": stats.median(
            [r["fabric_messages"] / steps for r in runs]),
        "final_loss": stats.median([final_loss(r["losses"]) for r in runs]),
        "peak_rss_mb": lone["peak_rss_mb"],
    }


def per_layer(harness, w, seed, seconds, steps, workdir):
    """Traced runs (with untraced twins for the overhead) plus the probes."""
    gate = Gate(w)
    seeds = workloads.subseeds(seed)
    for s in seeds:
        gate.add_oracle(harness, s, steps)
    probe = harness.call("probe", w, seeds[0])
    if probe is None:
        gate.attempted += 1
        gate.fail(f"{w.name}: probe run failed")
    traced_tps, plain_tps, dropped = [], [], []
    scalars, samples = [], {}
    n = 0
    for _ in range(w.trace_cycles(seconds)):
        for s in seeds:
            r = gate.run(harness, "train", s, steps=steps, setup_reps=1)
            if r is not None:
                plain_tps.append(stats.steady_rate(
                    r["tokens"], r["wall_1"][0], r["wall_s"]))
            out = workdir / f"trace-{os.getpid()}-{n}"
            n += 1
            out.mkdir(parents=True, exist_ok=True)
            try:
                r = gate.run(harness, "trace", s, steps=steps, out=out)
                if r is None:
                    continue
                trace = json.loads((out / "trace.json").read_text())
                snapshot = json.loads((out / "metrics.json").read_text())
            finally:
                shutil.rmtree(out, ignore_errors=True)
            traced_tps.append(stats.steady_rate(r["tokens"], r["wall_1"],
                                                r["wall_s"]))
            dropped.append(r["dropped"])
            scalars.append(layers.traced_run_metrics(
                r, trace["traceEvents"], snapshot, w, WORKERS))
            for name, values in layers.phase_samples(r).items():
                samples.setdefault(name, []).extend(values)
    if not scalars or probe is None:
        return gate, {}
    metrics = {name: stats.median([s[name] for s in scalars])
               for name in scalars[0]}
    # One tail level for every series: the highest the smallest series
    # (per-step skew, one sample per step) supports.
    fewest = min(len(v) for v in samples.values())
    level = stats.tail_level(fewest)
    if level is None:
        raise RuntimeError(f"{w.name}: {fewest} step samples are too few")
    for name, values in samples.items():
        metrics[name], metrics[name + ".tail"] = stats.median_and_tail(
            values, level)
    metrics["trace.samples"] = fewest
    metrics["trace.tail_pct"] = level
    metrics["trace.dropped_events"] = max(dropped)
    metrics["trace.overhead_frac"] = (
        1.0 - stats.median(traced_tps) / stats.median(plain_tps)
        if plain_tps else 0.0)
    metrics.update(probe)
    if max(dropped) > 0:
        gate.problems.append(f"{w.name}: trace dropped {max(dropped)} events")
    return gate, metrics


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json names for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values, trace):
    declared = declared_metrics(trace)
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise layers.LayerError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()}


def measure(harness, bdir, w, seed, seconds, trace, steps=None):
    if trace:
        gate, values = per_layer(harness, w, seed, seconds,
                                 steps or w.trace_steps, bdir)
    else:
        gate, values = end_to_end(harness, w, seed, seconds, steps or w.steps)
    if not values:
        raise RuntimeError(f"{w.name}: no run succeeded: {gate.problems}")
    return {
        "correct": not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": with_units(values, trace),
    }


def smoke(harness, bdir):
    """Every workload, a few steps, both modes; every declared metric must
    come back with its unit."""
    ok = True
    for w in workloads.WORKLOADS.values():
        for trace in (False, True):
            result = measure(harness, bdir, w, seed=1, seconds=0, trace=trace,
                             steps=40)
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            print(f"{w.name} trace={int(trace)}: "
                  f"{len(result['metrics'])} metrics, "
                  f"{'ok' if good else 'FAILED'}", flush=True)
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")

    exe, bdir = build()
    budget = SMOKE_BUDGET_S if a.smoke else RUN_BUDGET_S
    harness = Harness(exe, time.monotonic() + budget)
    if a.smoke:
        return 0 if smoke(harness, bdir) else 1
    result = measure(harness, bdir, workloads.WORKLOADS[a.workload], a.seed,
                     a.seconds, bool(a.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError, RuntimeError,
            ValueError) as e:
        log(f"error: {e}")
        sys.exit(1)
