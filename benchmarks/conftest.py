"""Shared fixtures for the paper-scale benchmark suite.

The overhead models are trained once per session at full paper scale
(the 120 s / 1-2-4-VM Table II sweep) and reused by every prediction
and placement benchmark.

``pytest benchmarks --jobs N`` fans experiment cells out over N worker
processes via the perf executor (0 = all CPUs); results are merged in
cell order, so benchmark outputs are identical to serial runs.
"""

from __future__ import annotations

import pytest

from repro.experiments.prediction import trained_models
from repro.perf.executor import ExecutionContext, execution_context


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for experiment cell fan-out "
        "(0 = all CPUs, 1 = serial)",
    )


@pytest.fixture(scope="session", autouse=True)
def _executor_jobs(request: pytest.FixtureRequest):
    """Install the session-wide ``--jobs`` execution context."""
    jobs = request.config.getoption("--jobs")
    with execution_context(ExecutionContext(jobs=jobs)):
        yield


@pytest.fixture(scope="session")
def paper_models():
    """(single_vm_model, multi_vm_model) trained at paper scale."""
    return trained_models(duration=120.0)
