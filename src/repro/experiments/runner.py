"""Experiment registry: every paper artifact by id.

``run("fig2a")`` reproduces one subfigure; ``run_group("fig2")`` a whole
figure; :data:`ALL_IDS` enumerates the reproduction surface.  ``fast``
mode shrinks durations/trials for smoke tests; ``repro all`` runs
everything at paper scale.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.experiments import (
    chaos,
    extras,
    fig2,
    fig5,
    fig6,
    fig10,
    fig34,
    fig789,
    tables,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.prediction import trained_models

#: Group id -> callable returning a list of ExperimentResult.
_GROUPS: Dict[str, Callable[..., List[ExperimentResult]]] = {}


def _register(group_id: str, fn: Callable[..., List[ExperimentResult]]) -> None:
    _GROUPS[group_id] = fn


def _fast_kwargs(group_id: str, fast: bool) -> dict:
    if not fast:
        return {}
    if group_id in (
        "fig2", "fig3", "fig4", "fig5", "fig6", "memconst", "toolover",
        "pmconsist",
    ):
        return {"duration": 12.0}
    if group_id in ("fig7", "fig8", "fig9"):
        single, multi = trained_models(duration=20.0)
        return {
            "single_model": single,
            "multi_model": multi,
            "client_counts": (300, 700),
            "duration": 60.0,
        }
    if group_id == "fig10":
        _, multi = trained_models(duration=20.0)
        return {
            "model": multi,
            "trials": 3,
            "duration_s": 40.0,
            "profile_s": 25.0,
        }
    if group_id == "chaos":
        _, multi = trained_models(duration=20.0)
        return {
            "duration": 15.0,
            "kinds": ("cpu", "bw"),
            "levels": ((0.0, 0.0), (0.05, 0.02), (0.10, 0.05)),
            "model": multi,
            "duration_s": 60.0,
        }
    return {}


_register("table1", lambda **kw: [tables.run_table1()])
_register("table2", lambda **kw: [tables.run_table2()])
_register("table3", lambda **kw: [tables.run_table3()])
_register("fig2", fig2.run_fig2)
_register("fig3", fig34.run_fig3)
_register("fig4", fig34.run_fig4)
_register("fig5", fig5.run_fig5)
_register("fig6", lambda **kw: [fig6.run_fig6(**kw)])
_register("fig7", fig789.run_fig7)
_register("fig8", fig789.run_fig8)
_register("fig9", fig789.run_fig9)
_register("fig10", fig10.run_fig10)
_register("memconst", lambda **kw: [extras.run_memconst(**kw)])
_register("toolover", lambda **kw: [extras.run_toolover(**kw)])
_register("pmconsist", lambda **kw: [extras.run_pmconsist(**kw)])
_register("purity", lambda **kw: [extras.run_purity(**kw)])
_register("chaos", chaos.run_chaos)

#: Every group id, in paper order.
GROUP_IDS: List[str] = list(_GROUPS)

#: Every individual artifact id (subfigures included).
ALL_IDS: List[str] = (
    ["table1", "table2", "table3"]
    + [f"fig2{s}" for s in "abcde"]
    + [f"fig3{s}" for s in "abcde"]
    + [f"fig4{s}" for s in "abcde"]
    + [f"fig5{s}" for s in "ab"]
    + ["fig6"]
    + [f"fig7{s}" for s in "abcd"]
    + [f"fig8{s}" for s in "abcd"]
    + [f"fig9{s}" for s in "abcd"]
    + [f"fig10{s}" for s in "ab"]
    + ["memconst", "toolover", "pmconsist", "purity"]
    + ["chaosa", "chaosb"]
)


def run_group(group_id: str, *, fast: bool = False) -> List[ExperimentResult]:
    """Run every artifact of one figure/table group."""
    if group_id not in _GROUPS:
        raise KeyError(
            f"unknown experiment group {group_id!r}; have {GROUP_IDS}"
        )
    return _GROUPS[group_id](**_fast_kwargs(group_id, fast))


def run(experiment_id: str, *, fast: bool = False) -> ExperimentResult:
    """Run one artifact by id (e.g. ``fig3c``)."""
    if experiment_id in _GROUPS:
        results = run_group(experiment_id, fast=fast)
        if len(results) == 1:
            return results[0]
        raise KeyError(
            f"{experiment_id!r} is a group of {len(results)} artifacts; "
            "use run_group, or pick one subfigure"
        )
    group = experiment_id.rstrip("abcde")
    if group not in _GROUPS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; have {ALL_IDS}"
        )
    for result in run_group(group, fast=fast):
        if result.experiment_id == experiment_id:
            return result
    raise KeyError(f"group {group!r} produced no artifact {experiment_id!r}")


def run_all(
    *, fast: bool = False, groups: Sequence[str] = ()
) -> List[ExperimentResult]:
    """Run the full reproduction (or a subset of groups)."""
    out: List[ExperimentResult] = []
    for gid in groups or GROUP_IDS:
        out.extend(run_group(gid, fast=fast))
    return out
