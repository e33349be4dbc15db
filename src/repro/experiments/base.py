"""Experiment result containers and rendering.

Every paper artifact (table or figure) is reproduced by one function
that returns an :class:`ExperimentResult`: the data series the paper
plots, plus explicit *shape checks* -- the qualitative criteria from
DESIGN.md section 5 (who wins, by what factor, where plateaus sit).
The CLI renders the series and exits nonzero when a check fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class Check:
    """One shape criterion and its verdict."""

    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass
class Series:
    """One plotted curve (or bar group): y over x."""

    label: str
    x: List[float]
    y: List[float]
    x_label: str = ""
    y_label: str = ""

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.label!r}: x ({len(self.x)}) and y "
                f"({len(self.y)}) lengths differ"
            )


@dataclass
class ExperimentResult:
    """Everything one table/figure reproduction produced."""

    experiment_id: str
    title: str
    series: List[Series] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    #: Free-form rendered body (used by the tables, which are not x/y).
    text: str = ""
    notes: str = ""

    @property
    def passed(self) -> bool:
        """True when every shape check holds."""
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> List[Check]:
        """The checks that did not hold."""
        return [c for c in self.checks if not c.passed]

    def check(self, name: str) -> Check:
        """Look a check up by name."""
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in {self.experiment_id}")

    def render(self) -> str:
        """Human-readable report: series table + check verdicts."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.text:
            lines.append(self.text)
        for s in self.series:
            lines.append(f"-- {s.label} ({s.x_label} -> {s.y_label})")
            xs = "  ".join(f"{v:>10.4g}" for v in s.x)
            ys = "  ".join(f"{v:>10.4g}" for v in s.y)
            lines.append(f"   x: {xs}")
            lines.append(f"   y: {ys}")
        for c in self.checks:
            lines.append(c.render())
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def approx_check(
    name: str, actual: float, expected: float, *, abs_tol: float
) -> Check:
    """A |actual - expected| <= tol check with a readable detail line."""
    passed = abs(actual - expected) <= abs_tol
    return Check(
        name,
        passed,
        f"actual={actual:.3g}, expected={expected:.3g} +/- {abs_tol:.3g}",
    )


def bound_check(
    name: str, actual: float, *, below: Optional[float] = None,
    above: Optional[float] = None,
) -> Check:
    """An interval check (either bound optional)."""
    passed = True
    parts = [f"actual={actual:.4g}"]
    if below is not None:
        passed = passed and actual <= below
        parts.append(f"<= {below:.4g}")
    if above is not None:
        passed = passed and actual >= above
        parts.append(f">= {above:.4g}")
    return Check(name, passed, " ".join(parts))
