"""Worklist taint propagation over the approximate call graph.

A *source* is a function that performs a tainting operation directly
(for REP101: an unsuppressed wall-clock or environment read).  Taint
propagates **backwards** along call edges -- every caller of a tainted
function is tainted -- until a fixpoint.  The result maps each tainted
function to the call chain that reaches the source, so rule messages
can show exactly how real time launders into the deterministic core.

The propagation is a breadth-first worklist seeded in sorted order, so
chains are shortest-first and byte-stable run to run.  Cycles in the
call graph terminate naturally: a function already tainted is never
re-enqueued.

A noqa at the funnel stops taint at the source: reads whose line is
suppressed (``# repro: noqa[REP002] ...``) never seed the worklist,
which is what makes the sanctioned funnels (``obs.runtime.wall_now``,
the supervisor's deadline clock) transparent to REP101.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.lint.graph import ClockRead, ProjectGraph


@dataclass(frozen=True)
class Taint:
    """Why a function is tainted.

    ``chain`` runs from the function itself down to the source
    function; ``read`` is the source's offending operation.
    """

    chain: Tuple[str, ...]
    read: ClockRead

    def render(self, max_hops: int = 4) -> str:
        hops = self.chain
        if len(hops) > max_hops:
            shown = [*hops[: max_hops - 1], "...", hops[-1]]
        else:
            shown = list(hops)
        return " -> ".join(shown)


def clock_sources(graph: ProjectGraph) -> Dict[str, ClockRead]:
    """Functions with a direct, *unsuppressed* wall-clock/env read."""
    out: Dict[str, ClockRead] = {}
    for name in sorted(graph.modules):
        for fn in graph.iter_functions(name):
            for read in fn.clock_reads:
                if read.suppressed:
                    continue
                if fn.qualname not in out:
                    out[fn.qualname] = read
    return out


def propagate(
    graph: ProjectGraph, sources: Dict[str, ClockRead]
) -> Dict[str, Taint]:
    """Backward-propagate taint from ``sources`` to every caller."""
    tainted: Dict[str, Taint] = {}
    queue: deque[str] = deque()
    for qual in sorted(sources):
        tainted[qual] = Taint(chain=(qual,), read=sources[qual])
        queue.append(qual)
    while queue:
        qual = queue.popleft()
        taint = tainted[qual]
        for caller in sorted(graph.callers.get(qual, ())):
            if caller in tainted:
                continue
            tainted[caller] = Taint(
                chain=(caller, *taint.chain), read=taint.read
            )
            queue.append(caller)
    return tainted
