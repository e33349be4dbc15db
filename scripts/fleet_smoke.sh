#!/usr/bin/env bash
# Fleet-scale smoke: run the fleet experiment at CI scale serially and
# with --jobs 2, require the artifacts to be byte-identical, require
# two sanitized runs to draw the same count from every RNG stream, and
# bound the driver's peak RSS to prove the streaming
# (incremental-consume) results path holds memory flat.
#
# Usage: bash scripts/fleet_smoke.sh   (from the repo root)
set -euo pipefail

export PYTHONPATH=src
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# CI scale: big enough that VOU overloads and migrates (every shape
# check is real), small enough for a couple of minutes of runtime.
SCALE=(--pms 48 --vms 480 --clients 40000 --duration 120 --trials 2)

# Peak RSS bound for the whole driver process (MB).  The summaries
# streamed per cell are a few KB; the bound mostly covers numpy +
# the simulator working set, and catches any return to buffering
# every CellOutcome in memory.
RSS_BOUND_MB=400

run_bounded() {
    local out="$1"; shift
    python - "$out" "$RSS_BOUND_MB" "$@" <<'EOF'
import resource
import sys

out_dir, bound_mb, *argv = sys.argv[1:]
from repro.cli import main

code = main(["fleet", *argv, "--out", out_dir])
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(f"peak RSS {peak_mb:.0f} MB (bound {bound_mb} MB)")
if code != 0:
    sys.exit(code)
if peak_mb > float(bound_mb):
    sys.exit(f"peak RSS {peak_mb:.0f} MB exceeds bound {bound_mb} MB")
EOF
}

echo "== fleet run, serial =="
run_bounded "$WORK/serial" "${SCALE[@]}" | tail -2

echo "== fleet run, --jobs 2 =="
run_bounded "$WORK/j2" "${SCALE[@]}" --jobs 2 | tail -2

echo "== diff: artifacts serial vs parallel dispatch =="
diff -r "$WORK/serial" "$WORK/j2"

echo "== sanitizer draw counts across two runs =="
python - "${SCALE[@]}" <<'EOF'
import sys

from repro.cli import main
from repro.sim import sanitize

counts = []
for run in range(2):
    sanitize.reset_collector()
    code = main(["fleet", *sys.argv[1:], "--sanitize"])
    assert code == 0, f"sanitized fleet run {run} exited {code}"
    counts.append(dict(sanitize.aggregate_draw_counts()))
assert counts[0], "sanitized fleet run recorded no draws"
assert counts[0] == counts[1], "per-stream draw counts diverged"
print(f"draw counts identical over {len(counts[0])} stream(s)")
EOF

echo "fleet smoke passed: serial == --jobs 2, draw counts repeat, RSS bounded"
