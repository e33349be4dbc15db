"""Time-series plumbing: trace containers and file round-tripping."""

from repro.traces.io import load_csv, load_json, save_csv, save_json
from repro.traces.trace import Trace, TraceSet

__all__ = [
    "Trace",
    "TraceSet",
    "load_csv",
    "load_json",
    "save_csv",
    "save_json",
]
