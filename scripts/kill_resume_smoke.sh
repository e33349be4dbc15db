#!/usr/bin/env bash
# Kill-and-resume smoke: SIGKILL a checkpointed paper-scale run
# mid-sweep, resume it, and require the final artifacts to be
# byte-identical to an uninterrupted clean run.  Two legs: checkpoints
# in the run directory's own store, and checkpoints in a shared
# --cache-dir store (the run directory then holds only the ledger).
#
# Usage: bash scripts/kill_resume_smoke.sh   (from the repo root)
#   KILL_AFTER=1.5   seconds before the SIGKILL lands (default 1.5;
#                    fig5 at paper scale needs ~2.5 s wall with 2 jobs,
#                    so the default interrupts mid-sweep on CI runners)
set -euo pipefail

export PYTHONPATH=src
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

CLEAN="$WORK/clean"
KILL_AFTER="${KILL_AFTER:-1.5}"

echo "== clean run (uninterrupted baseline) =="
python -m repro run fig5 --jobs 2 --out "$CLEAN" > "$WORK/clean.log" 2>&1

# kill_and_resume LEG [ARGS...]: SIGKILL a --run-dir run of fig5 (with
# ARGS), resume it, and diff its artifacts against the clean run.
kill_and_resume() {
    local leg="$1"
    shift
    local run_dir="$WORK/run-$leg" out="$WORK/resumed-$leg"

    echo "== [$leg] interrupted run (SIGKILL after ${KILL_AFTER}s) =="
    set +e
    python -m repro run fig5 --jobs 2 --run-dir "$run_dir" "$@" \
        --out "$out" > "$WORK/killed-$leg.log" 2>&1 &
    local pid=$!
    sleep "$KILL_AFTER"
    # The SIGKILLed CLI cannot shut its warm pool down: reap the
    # orphaned workers too, so they do not outlive the smoke.  Freeze
    # the CLI first, so it cannot spawn another worker between listing
    # its children and killing them.
    local workers
    kill -STOP "$pid" 2>/dev/null
    workers="$(pgrep -P "$pid")"
    kill -9 "$pid" $workers 2>/dev/null
    wait "$pid" 2>/dev/null
    set -e

    # On a fast machine the kill may land after completion; resume must
    # converge to the same artifacts either way.
    python -m repro runs status "$run_dir"

    echo "== [$leg] resumed run =="
    python -m repro run fig5 --jobs 2 --resume "$run_dir" "$@" \
        --out "$out" > "$WORK/resume-$leg.log" 2>&1
    grep "run manifest:" "$WORK/resume-$leg.log"

    echo "== [$leg] diff: resumed artifacts vs clean run =="
    diff -r "$CLEAN" "$out"

    python -m repro runs status "$run_dir" | grep -q "state: *complete"
}

kill_and_resume run-dir
kill_and_resume cache-dir --cache-dir "$WORK/cache"
# With a shared store every checkpoint lives in the cache, written once.
if [ -n "$(find "$WORK/run-cache-dir" -name '*.pkl')" ]; then
    echo "error: checkpoints written outside the --cache-dir store" >&2
    exit 1
fi
echo "kill-and-resume smoke passed: artifacts byte-identical (both legs)"
