"""The traced run: spans at repro's public layer boundaries, deterministic
work counters, and cProfile self time grouped by ``repro.<package>``.

Spans are recorded from the benchmark's own files by wrapping each
boundary for the duration of one pass; nothing under ``src/`` changes.
A span has a name, start, end and parent id and stays in memory (four
flat arrays) until the pass ends.  A span's self time is its duration
minus its children's, so the self times of a pass add up to the root
span's wall time exactly when the spans nest; :func:`span_tree` checks
that they do.

The ``cluster`` router and the ``xen`` quantum body have no public
boundary, so per-package self time comes from a separate cProfile pass:
each function's own time goes to the ``repro.<package>`` that defines
it, and time in code outside ``repro`` (builtins, numpy, the standard
library) goes to its nearest ``repro`` caller.  The benchmark's own code
is the ``bench`` layer; anything with no ``repro`` caller is ``other``.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import repro  # noqa: F401  -- first, as the CLI does; see NOTES.md
from repro.experiments import fleet as fleet_exp, prediction
from repro.monitor.script import MeasurementScript
from repro.perf.cells import FleetCell, PredictionCell
from repro.serve.service import PredictionService
from repro.sim.engine import Simulator
from repro.xen import machine, stateclock

perf = time.perf_counter

#: The repo's modules, in the order the table prints them.
LAYERS = (
    "sim", "xen", "cluster", "monitor", "models", "rubis", "placement",
    "serve", "perf", "obs", "experiments", "bench", "other",
)

#: The layer each span boundary belongs to; ``workload`` is the root
#: span the benchmark opens around one timed body.
BOUNDARY_LAYER = {
    "workload": "bench",
    "trained_models": "models",
    "run_cells": "perf",
    "Cell.run": "perf",
    "Simulator.run_until": "sim",
    "MeasurementScript.stop": "monitor",
    "weighted_water_fill": "xen",
    "PredictionService.deliver": "serve",
    "PredictionService.tick": "serve",
    "PredictionService.query": "serve",
    "PredictionService.flush": "serve",
}

#: Deterministic counters; two passes of the same code must agree.
COUNTERS = (
    "xen.quanta_computed", "xen.quanta_total", "xen.clock_bumps",
    "sim.events", "monitor.samples", "cluster.fleet_messages",
    "placement.migrations", "placement.migrations_rejected",
    "placement.hotspots", "perf.cells", "serve.wal_records",
    "serve.promotions", "serve.drift_alarms", "serve.shed",
)


class Spans:
    """Spans of one pass as flat arrays: name id, start, end, parent."""

    ROOT = -1

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: List[int] = [self.ROOT]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, \
            self.parent
        stack = self.stack

        def spanned(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()

        return spanned

    def calls(self, name: str) -> int:
        if name not in self._ids:
            return 0
        return self.name.count(self._ids[name])

    def __len__(self) -> int:
        return len(self.start)


class Instrument:
    """Installs spans and counters at the layer boundaries for one pass.

    Boundaries: ``run_cells`` (at the prediction and fleet import
    sites), ``Cell.run``, ``Simulator.run_until``,
    ``MeasurementScript.stop``, ``weighted_water_fill`` at its
    ``repro.xen.machine`` import site and ``PredictionService``'s
    ``deliver``/``tick``/``query``/``flush``.  Counts are taken at the
    same boundaries.
    """

    def __init__(self) -> None:
        self.spans = Spans()
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._saved: List[Tuple[object, str, object]] = []
        self._machines: List[machine.PhysicalMachine] = []

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Instrument":
        spans = self.spans
        for module in (prediction, fleet_exp):
            self._patch(module, "run_cells",
                        spans.wrap("run_cells", module.run_cells))
        for cls in (PredictionCell, FleetCell):
            self._patch(cls, "run", self._cell_run(cls.__dict__["run"]))
        self._patch(Simulator, "run_until",
                    spans.wrap("Simulator.run_until", Simulator.run_until))
        self._patch(MeasurementScript, "stop",
                    self._script_stop(MeasurementScript.stop))
        self._patch(machine, "weighted_water_fill",
                    spans.wrap("weighted_water_fill",
                               machine.weighted_water_fill))
        for method in ("deliver", "tick", "query", "flush"):
            self._patch(
                PredictionService, method,
                spans.wrap(f"PredictionService.{method}",
                           PredictionService.__dict__[method]),
            )
        init = machine.PhysicalMachine.__init__
        machines = self._machines

        def pm_init(pm, *args, **kwargs):
            init(pm, *args, **kwargs)
            machines.append(pm)

        self._patch(machine.PhysicalMachine, "__init__", pm_init)
        self._bumps0 = stateclock.version()
        self._root = spans.wrap("workload", lambda fn: fn())
        return self

    def run(self, body: Callable):
        """Run ``body`` under the root span."""
        return self._root(body)

    def __exit__(self, *exc) -> None:
        self.counters["xen.clock_bumps"] = stateclock.version() - self._bumps0
        self.counters["xen.quanta_computed"] = self.spans.calls(
            "weighted_water_fill")
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _cell_run(self, original: Callable) -> Callable:
        spanned = self.spans.wrap("Cell.run", original)
        counters, machines = self.counters, self._machines

        def run(cell):
            value, events = spanned(cell)
            counters["perf.cells"] += 1
            counters["sim.events"] += events
            # Quanta a PM would run if it never skipped one: its
            # simulated seconds over its quantum.
            counters["xen.quanta_total"] += sum(
                round(pm.sim.now / pm.quantum) for pm in machines
            )
            machines.clear()
            if isinstance(value, dict) and "messages" in value:
                counters["cluster.fleet_messages"] += value["messages"]
                for key in ("migrations", "migrations_rejected", "hotspots"):
                    counters[f"placement.{key}"] += value[key]
            return value, events

        return run

    def _script_stop(self, original: Callable) -> Callable:
        spanned = self.spans.wrap("MeasurementScript.stop", original)
        counters = self.counters

        def stop(script):
            report = spanned(script)
            # One sample per sampling tick (every trace has one value
            # per tick).
            counters["monitor.samples"] += len(
                report.traces[report.traces.names[0]])
            return report

        return stop


def span_tree(spans: Spans) -> Dict[str, object]:
    """Per-name busy and self time, plus the tree's integrity figures.

    Returns ``busy``/``self``/``calls`` per span name, the root's wall
    time, the sum of all self times and the number of spans that lie
    outside their parent (which would double-count time).
    """
    n = len(spans)
    child = [0.0] * n
    escaped = 0
    start, end, parent = spans.start, spans.end, spans.parent
    roots = 0.0
    for i in range(n):
        p = parent[i]
        dur = end[i] - start[i]
        if p == Spans.ROOT:
            roots += dur
            continue
        child[p] += dur
        if start[i] < start[p] or end[i] > end[p]:
            escaped += 1
    busy: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for i in range(n):
        name = spans.names[spans.name[i]]
        dur = end[i] - start[i]
        busy[name] += dur
        own[name] += dur - child[i]
        calls[name] += 1
    return {
        "busy": dict(busy),
        "self": dict(own),
        "calls": dict(calls),
        "wall": roots,
        "self_sum": sum(own.values()),
        "escaped": escaped,
    }


def _layer_of_file(filename: str, src_repro: Path, bench: Path) -> str:
    if filename.startswith(("~", "<")):
        return ""
    path = Path(filename).resolve()
    try:
        rel = path.relative_to(src_repro)
    except ValueError:
        return "bench" if path.parent == bench else ""
    return rel.parts[0] if len(rel.parts) > 1 else "other"


def profile_layers(
    prof: cProfile.Profile, src_repro: Path, bench: Path
) -> Dict[str, float]:
    """Self seconds per layer from one cProfile pass.

    Code outside ``repro`` is charged to its callers in proportion to the
    time each caller spent in it, recursively, until a ``repro`` (or
    benchmark) frame is reached; a cycle of foreign frames, or a frame
    with no caller, lands in ``other``.
    """
    stats = pstats.Stats(prof).stats
    own: Dict[tuple, str] = {}
    for func in stats:
        own[func] = _layer_of_file(func[0], src_repro, bench)
    resolved: Dict[tuple, Dict[str, float]] = {}

    def shares(func, visiting) -> Dict[str, float]:
        if own.get(func):
            return {own[func]: 1.0}
        if func in resolved:
            return resolved[func]
        callers = stats[func][4] if func in stats else {}
        edges = {c: e[2] for c, e in callers.items() if c not in visiting}
        total = sum(edges.values())
        if total <= 0.0:
            edges = {c: float(e[1]) for c, e in callers.items()
                     if c not in visiting}
            total = sum(edges.values())
        if total <= 0.0:
            return {"other": 1.0}
        out: Dict[str, float] = defaultdict(float)
        visiting.add(func)
        for caller, weight in edges.items():
            for layer, share in shares(caller, visiting).items():
                out[layer] += share * weight / total
        visiting.discard(func)
        resolved[func] = dict(out)
        return resolved[func]

    layers: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0.0:
            continue
        for layer, share in shares(func, set()).items():
            name = layer if layer in LAYERS else "other"
            layers[name] += tt * share
    return dict(layers)


def profiled(body: Callable, sink: List[cProfile.Profile]):
    """Run ``body`` under cProfile, append the profile to ``sink`` and
    return the body's result."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        return body()
    finally:
        prof.disable()
        sink.append(prof)
