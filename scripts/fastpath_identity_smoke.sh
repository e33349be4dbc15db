#!/usr/bin/env bash
# Fast-path byte-identity smoke.  Two legs:
#
#   fig5 (paper scale):       default fast path, REPRO_SIM_SLOWPATH=1,
#                             and a parallel chunked run (--jobs 4 --chunk 2);
#   repro all --fast (every   default fast path, REPRO_SIM_SLOWPATH=1,
#   artifact, reduced scale): a parallel run (--jobs 2), and an observed
#                             run (--obs-dir).
#
# The fast path is the batched drain, the steady-state quantum memo and
# precompiled monitor sampling; REPRO_SIM_SLOWPATH=1 selects the
# per-event reference path.  Observation must not change the path
# taken.  Every output file must be byte-for-byte identical across the
# runs of a leg.
#
# Usage: bash scripts/fastpath_identity_smoke.sh   (from the repo root)
set -euo pipefail

export PYTHONPATH=src
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

FAST="$WORK/fast"
SLOW="$WORK/slow"
PAR="$WORK/parallel"

echo "== fig5: fast path (default) =="
python -m repro run fig5 --out "$FAST" > "$WORK/fast.log" 2>&1

echo "== fig5: slow path (REPRO_SIM_SLOWPATH=1) =="
REPRO_SIM_SLOWPATH=1 python -m repro run fig5 --out "$SLOW" \
    > "$WORK/slow.log" 2>&1

echo "== fig5: parallel chunked (--jobs 4 --chunk 2) =="
python -m repro run fig5 --jobs 4 --chunk 2 --out "$PAR" \
    > "$WORK/parallel.log" 2>&1

echo "== fig5: diff =="
diff -r "$FAST" "$SLOW"
diff -r "$FAST" "$PAR"
echo "fig5: fast == slow == parallel: byte-identical"

ALL_FAST="$WORK/all-fast"
ALL_SLOW="$WORK/all-slow"
ALL_PAR="$WORK/all-parallel"
ALL_OBS="$WORK/all-observed"

echo "== all --fast: fast path (default) =="
python -m repro all --fast --out "$ALL_FAST" > "$WORK/all-fast.log" 2>&1

echo "== all --fast: slow path (REPRO_SIM_SLOWPATH=1) =="
REPRO_SIM_SLOWPATH=1 python -m repro all --fast --out "$ALL_SLOW" \
    > "$WORK/all-slow.log" 2>&1

echo "== all --fast: parallel (--jobs 2) =="
python -m repro all --fast --jobs 2 --out "$ALL_PAR" \
    > "$WORK/all-parallel.log" 2>&1

echo "== all --fast: observed (--obs-dir) =="
python -m repro all --fast --obs-dir "$WORK/obs" --out "$ALL_OBS" \
    > "$WORK/all-observed.log" 2>&1
grep "observability: wrote" "$WORK/all-observed.log"

echo "== all --fast: diff =="
n_files="$(find "$ALL_FAST" -type f | wc -l)"
if [ "$n_files" -eq 0 ]; then
    echo "all --fast wrote no output files" >&2
    exit 1
fi
diff -r "$ALL_FAST" "$ALL_SLOW"
diff -r "$ALL_FAST" "$ALL_PAR"
diff -r "$ALL_FAST" "$ALL_OBS"
echo "all --fast: default == slowpath == --jobs 2 == --obs-dir: byte-identical ($n_files files)"
