"""Tests for the extension experiments."""

from __future__ import annotations

import pytest

from repro.experiments.extras import run_memconst, run_pmconsist, run_toolover
from repro.experiments.runner import run


class TestMemconst:
    def test_passes_fast(self):
        result = run_memconst(duration=10.0)
        assert result.passed, [c.render() for c in result.failed_checks()]

    def test_has_all_constant_series(self):
        result = run_memconst(duration=8.0)
        labels = {s.label for s in result.series}
        assert {"dom0.cpu", "hyp.cpu", "vm.mem", "pm.io", "pm.bw"} <= labels

    def test_vm_memory_actually_grows(self):
        result = run_memconst(duration=8.0)
        vm_mem = next(s for s in result.series if s.label == "vm.mem")
        assert vm_mem.y[-1] > vm_mem.y[0] + 40.0  # 0.03 -> 50 Mb grid


class TestToolover:
    def test_passes_fast(self):
        result = run_toolover(duration=10.0)
        assert result.passed, [c.render() for c in result.failed_checks()]

    def test_ordering_none_unified_naive(self):
        result = run_toolover(duration=10.0)
        dom0 = next(s for s in result.series if s.label == "dom0.cpu")
        clean, unified, naive = dom0.y
        assert clean < unified < naive


class TestPmconsist:
    def test_passes_fast(self):
        result = run_pmconsist(duration=12.0)
        assert result.passed, [c.render() for c in result.failed_checks()]


class TestRegistryIntegration:
    def test_extras_runnable_by_id(self):
        assert run("memconst", fast=True).experiment_id == "memconst"
        assert run("toolover", fast=True).experiment_id == "toolover"
