"""One benchmark process: set up one workload, then time it or trace it.

``run.py`` starts this file in a fresh interpreter.  It prints
``READY <monotonic seconds>`` the moment set-up ends, then
``SPEED <factor>`` (``speed.speed_factor()`` probed right after set-up,
which scales the set-up time), then, unless ``--mode setup``, the
human-readable report and a final ``RESULT <json>`` line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import prediction  # noqa: E402
from repro.obs.runtime import collecting  # noqa: E402

REFERENCE = BENCH / "reference.json"
#: Seed whose outputs and counters are pinned in ``reference.json``.
REFERENCE_SEED = 0
#: Allowed gap between the layer self times of the cProfile pass and
#: that pass's wall time (time the profiler spends outside any function).
PROFILE_TOLERANCE = 0.05
#: A timed run makes at least this many iterations.
MIN_ITERATIONS = 2


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Checker:
    """Checks every iteration's output: against the committed reference
    at the reference seed, and against the run's first iteration at any
    seed (the same inputs must give the same bytes)."""

    def __init__(self, workload: str, seed: int) -> None:
        self.reference = None
        if seed == REFERENCE_SEED:
            self.reference = json.loads(REFERENCE.read_text())[workload]
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, it: workloads.Iteration, label: str) -> None:
        self.attempted += it.attempted
        failed = it.failed
        for problem in it.problems:
            self.problems.append(f"{label}: {problem}")
        expected = self.reference["digest"] if self.reference else self.first
        if expected is not None and it.digest != expected:
            self.problems.append(
                f"{label}: output digest {it.digest[:16]} != {expected[:16]}"
            )
            failed = it.attempted
        if self.first is None:
            self.first = it.digest
        self.failed += failed

    def check_counters(self, counters, label: str) -> None:
        if self.reference is None:
            return
        for name, want in self.reference["counters"].items():
            if counters.get(name) != want:
                self.problems.append(
                    f"{label}: counter {name} = {counters.get(name)}, "
                    f"reference {want}"
                )


def run_body(workload, body=None) -> workloads.Iteration:
    """One timed body (optionally wrapped), finished outside the clock."""
    gc.collect()
    t0 = time.perf_counter()
    out = body() if body is not None else workload.body()
    wall = time.perf_counter() - t0
    return workload.finish(out, wall)


def timed_body(workload):
    """One body with the speed probe at its checkpoints; returns the
    iteration (its ``wall_s`` in raw host seconds) and the probes."""
    track = speed.SpeedTrack()
    workload.speed = track
    gc.collect()
    track.mark()
    try:
        out = workload.body()
    finally:
        workload.speed = None
    track.mark()
    track.close()
    return workload.finish(out, track.raw()), track


def scaled_latencies(it, track) -> List[List[float]]:
    """The iteration's request latencies in microseconds at the
    reference speed, sorted within each group."""
    return [sorted(track.scaled(a, b) * 1e6 for a, b in group)
            for group in it.latency_groups]


def rank_medians(per_iteration) -> List[float]:
    """One latency per request position: the median over the iterations
    of the latency at that rank within its group (a group holds the same
    requests in every iteration)."""
    pooled: List[float] = []
    for group in zip(*per_iteration):
        pooled.extend(map(statistics.median, zip(*group)))
    return pooled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(workload, seconds: float, checker: Checker):
    """Run bodies while the next one fits in ``seconds`` (at least
    ``MIN_ITERATIONS``); report times at the reference speed (see
    ``speed.py``), as medians over the bodies."""
    raw, scaled, latencies = [], [], []
    first = None
    start = time.perf_counter()
    while True:
        it, track = timed_body(workload)
        checker.check(it, f"iteration {len(raw) + 1}")
        if first is None:
            first, stretches = it, track.stretches
            # Set-up and one body; later bodies would only add garbage.
            rss = peak_rss_mb()
        elif [len(g) for g in it.latency_groups] != [
                len(g) for g in first.latency_groups]:
            raise RuntimeError("iterations answered different requests")
        raw.append(it.wall_s)
        scaled.append(track.scaled())
        latencies.append(scaled_latencies(it, track))
        elapsed = time.perf_counter() - start
        if len(raw) >= MIN_ITERATIONS and elapsed + max(raw) > seconds:
            break
    wall = statistics.median(scaled)
    pooled = rank_medians(latencies)
    metrics = {
        "wall_s": (wall, "s"),
        "pm_sim_s_per_s": (first.pm_sim_s / wall, "s/s"),
        "samples_per_s": (first.samples / wall, "1/s"),
        "query_p50_us": (percentile(pooled, 50), "us"),
        "query_p99_us": (percentile(pooled, 99), "us"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines = [
        f"timed: {len(raw)} iteration(s) of {stretches} stretches, raw "
        "host wall " + ", ".join(f"{x:.3f}" for x in raw)
        + f" s (median {statistics.median(raw):.3f} s); at the reference "
        "speed " + ", ".join(f"{x:.3f}" for x in scaled)
        + f" s (median {wall:.3f} s, host speed "
        f"x{wall / statistics.median(raw):.3f}); {len(pooled)} request "
        "positions",
    ]
    return metrics, lines


def traced(workload, checker: Checker, train_s: float):
    src_repro = ROOT / "src" / "repro"
    plain = run_body(workload)
    checker.check(plain, "untraced pass")

    with layers.Instrument() as spans_pass:
        it = run_body(workload, lambda: spans_pass.run(workload.body))
    checker.check(it, "span pass")
    counters = dict(spans_pass.counters, **it.counters)
    tree = layers.span_tree(spans_pass.spans)
    traced_wall = it.wall_s

    profiles = []
    with layers.Instrument() as prof_pass:
        it = run_body(workload, lambda: layers.profiled(
            lambda: prof_pass.run(workload.body), profiles))
    checker.check(it, "profile pass")
    counters2 = dict(prof_pass.counters, **it.counters)
    raw = layers.profile_layers(profiles.pop(), src_repro, BENCH)
    prof_wall = it.wall_s

    def observed():
        with collecting():
            return workload.body()

    it = run_body(workload, observed)
    checker.check(it, "obs pass")
    obs_ratio = it.wall_s / plain.wall_s

    for name in layers.COUNTERS:
        if counters[name] != counters2[name]:
            checker.problems.append(
                f"counter {name} differs between passes: "
                f"{counters[name]} vs {counters2[name]}"
            )
    checker.check_counters(counters, "span pass")
    wall = tree["wall"]
    if tree["escaped"] or abs(tree["self_sum"] - wall) > 1e-6 * wall:
        checker.problems.append(
            f"span tree: self times sum to {tree['self_sum']:.6f} s of "
            f"{wall:.6f} s, {tree['escaped']} span(s) outside their parent"
        )
    raw_sum = sum(raw.values())
    coverage = raw_sum / prof_wall
    if abs(coverage - 1.0) > PROFILE_TOLERANCE:
        checker.problems.append(
            f"profile: layer self times cover {coverage:.1%} of the "
            f"profiled wall, outside +-{PROFILE_TOLERANCE:.0%}"
        )
    self_s = {layer: raw.get(layer, 0.0) * wall / raw_sum
              for layer in layers.LAYERS}
    busy = tree["busy"]
    computed = counters["xen.quanta_computed"]
    total = counters["xen.quanta_total"]
    metrics = {name: (counters[name], "count") for name in layers.COUNTERS}
    metrics.update({
        f"{layer}.self_s": (self_s[layer], "s") for layer in layers.LAYERS
    })
    metrics.update({
        "xen.memo_hit_ratio": (1.0 - computed / total if total else 0.0,
                               "ratio"),
        "models.train_s": (train_s, "s"),
        "serve.deliver_busy_s": (
            busy.get("PredictionService.deliver", 0.0), "s"),
        "serve.tick_busy_s": (busy.get("PredictionService.tick", 0.0), "s"),
        "serve.query_busy_s": (busy.get("PredictionService.query", 0.0), "s"),
        "serve.flush_s": (busy.get("PredictionService.flush", 0.0), "s"),
        "perf.overhead_s": (
            busy.get("run_cells", 0.0) - busy.get("Cell.run", 0.0), "s"),
        "obs.overhead_ratio": (obs_ratio, "ratio"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_ratio": (traced_wall / plain.wall_s, "ratio"),
        "trace.profile_coverage": (coverage, "ratio"),
    })
    lines = layer_table(self_s, tree, counters)
    lines += [
        f"span tree: {len(spans_pass.spans)} spans, self times sum to "
        f"{tree['self_sum']:.4f} s of {wall:.4f} s traced wall, "
        f"{tree['escaped']} outside their parent",
        f"profile: layer self times {raw_sum:.3f} s of {prof_wall:.3f} s "
        f"profiled ({coverage:.2%}; tolerance +-{PROFILE_TOLERANCE:.0%})",
        f"tracing overhead: traced {traced_wall:.3f} s vs untraced "
        f"{plain.wall_s:.3f} s (x{traced_wall / plain.wall_s:.3f}); "
        f"obs.overhead_ratio x{obs_ratio:.3f} with repro.obs collecting",
    ]
    return metrics, lines


def layer_table(self_s, tree, counters):
    wall = tree["wall"]
    lines = [f"{'layer':<12}{'self_s':>10}{'share':>8}  boundary spans "
             "(calls, busy_s, self_s)"]
    for layer in layers.LAYERS:
        spans = [
            f"{name} {tree['calls'][name]} {tree['busy'][name]:.3f} "
            f"{tree['self'][name]:.3f}"
            for name in tree["calls"]
            if layers.BOUNDARY_LAYER[name] == layer
        ]
        lines.append(
            f"{layer:<12}{self_s[layer]:>10.3f}"
            f"{self_s[layer] / wall if wall else 0.0:>8.1%}  "
            + "; ".join(spans)
        )
    lines.append(f"{'total':<12}{sum(self_s.values()):>10.3f}")
    lines.append("counters: " + ", ".join(
        f"{name}={counters[name]}" for name in layers.COUNTERS))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced"))
    args = parser.parse_args(argv)

    state_root = ROOT / ".perfbench-state" / str(os.getpid())
    workload = workloads.make(args.workload, args.seed, state_root)
    train = layers.Spans()
    if isinstance(workload, workloads.RubisPredict):
        workload.setup(train.wrap("trained_models",
                                  prediction.trained_models))
    else:
        workload.setup()
    print(f"READY {time.monotonic()!r}", flush=True)
    print(f"SPEED {speed.speed_factor()!r}", flush=True)
    if args.mode == "setup":
        return 0
    train_s = layers.span_tree(train)["busy"].get("trained_models", 0.0)
    checker = Checker(args.workload, args.seed)
    try:
        if args.mode == "timed":
            metrics, lines = timed(workload, args.seconds, checker)
        else:
            metrics, lines = traced(workload, checker, train_s)
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
        try:
            state_root.parent.rmdir()
        except OSError:
            pass
    for line in lines + checker.problems:
        print(line)
    print("RESULT " + json.dumps({
        "correct": not checker.problems and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
