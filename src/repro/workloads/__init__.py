"""Micro-benchmark workload generators (paper Section III-B, Table II)."""

from repro.workloads.base import DynamicWorkload, Workload
from repro.workloads.legacy import HttperfLoad, IperfLoad, resource_purity
from repro.workloads.lookbusy import IO_HOG_CPU_PCT, CpuHog, IoHog, MemHog
from repro.workloads.netload import (
    INTRA_PM_PACKET_KB,
    PING_BASE_CPU_PCT,
    PingLoad,
    intra_pm_ping,
)
from repro.workloads.suite import (
    BW,
    CPU,
    IO,
    KINDS,
    MEM,
    TABLE_II,
    BenchmarkSpec,
    intensity_levels,
    make_benchmark,
)

__all__ = [
    "BW",
    "BenchmarkSpec",
    "CPU",
    "CpuHog",
    "DynamicWorkload",
    "HttperfLoad",
    "IperfLoad",
    "resource_purity",
    "INTRA_PM_PACKET_KB",
    "IO",
    "IO_HOG_CPU_PCT",
    "IoHog",
    "KINDS",
    "MEM",
    "MemHog",
    "PING_BASE_CPU_PCT",
    "PingLoad",
    "TABLE_II",
    "Workload",
    "intensity_levels",
    "intra_pm_ping",
    "make_benchmark",
]
