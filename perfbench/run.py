"""The repo's benchmark of record: three workloads, timed and traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload rubis_predict --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` times the workload and reports the end-to-end metrics;
``--trace 1`` makes a separate traced run and reports the per-layer
table.  Every output is checked.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit).  See NOTES.md for what each workload and
metric means.

This file uses only the standard library: each measurement runs in a
fresh interpreter (``child.py``), so ``setup_s`` covers imports too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("rubis_predict", "fleet", "serve_ingest")
#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 3
#: A run must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def source_info() -> str:
    """Non-blank ``src/`` line count, commit and source digest (recorded
    beside every result as information, not gated)."""
    lines = 0
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(data)
        lines += sum(1 for line in data.splitlines() if line.strip())
    commit = "n/a"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return (f"src_lines={lines} commit={commit} "
            f"src_sha256={digest.hexdigest()[:16]}")


def child(workload: str, seed: int, seconds: float, mode: str,
          deadline: float):
    """Run one ``child.py``; return (raw set-up seconds, host speed
    factor probed right after set-up, stdout lines)."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    # A fixed hash seed keeps set/dict layouts, and so run time, the same
    # from one process to the next.  One BLAS thread: an idle OpenBLAS
    # worker spins after each large product (model training does many)
    # and takes the core from the measured thread.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} run passed the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} run exited {proc.returncode}")
    lines = out.splitlines()
    ready = [float(x.split()[1]) for x in lines if x.startswith("READY ")]
    factor = [float(x.split()[1]) for x in lines if x.startswith("SPEED ")]
    if len(ready) != 1 or len(factor) != 1:
        raise BenchError(f"{workload} {mode} run never finished set-up")
    return ready[0] - started, factor[0], lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            setups.append(child(workload, seed, seconds, "setup", deadline))
    raw, factor, lines = child(workload, seed, seconds,
                               "traced" if trace else "timed", deadline)
    setups.append((raw, factor, lines))
    results = [x for x in lines if x.startswith("RESULT ")]
    if len(results) != 1:
        raise BenchError(f"{workload} run printed no result")
    result = json.loads(results[0][len("RESULT "):])
    if not trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(raw * f for raw, f, _ in setups),
            "unit": "s"}
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'timed'})")
    for line in lines:
        if not line.startswith(("READY ", "SPEED ", "RESULT ")):
            print(line)
    if not trace:
        print("setup_s samples (raw host s x speed): " + ", ".join(
            f"{raw:.3f} x{f:.3f}" for raw, f, _ in setups))
    rate = result["failed"] / result["attempted"]
    for name, m in result["metrics"].items():
        print(f"  {name:<32}{m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':<32}{rate:>16.6g} ({result['failed']} of "
          f"{result['attempted']} operations)")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo's benchmark workloads.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no src/repro package next to the benchmark",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(source_info())
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
