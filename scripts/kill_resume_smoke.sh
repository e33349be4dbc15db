#!/usr/bin/env bash
# Kill-and-resume smoke: SIGKILL a checkpointed paper-scale fig7 run
# (5 cells of ~2.4 s each) as soon as its ledger records the first
# completed cell, resume it, and require the final artifacts to be
# byte-identical to an uninterrupted clean run.  The smoke fails unless
# the killed run left at least one cell pending, so it always tests a
# resume from the middle of the sweep.  Two legs: checkpoints in the
# run directory's own store, and checkpoints in a shared --cache-dir
# store (the run directory then holds only the ledger).
#
# Usage: bash scripts/kill_resume_smoke.sh   (from the repo root)
set -euo pipefail

export PYTHONPATH=src
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

CLEAN="$WORK/clean"

echo "== clean run (uninterrupted baseline) =="
python -m repro run fig7 --jobs 2 --out "$CLEAN" > "$WORK/clean.log" 2>&1

# kill_and_resume LEG [ARGS...]: SIGKILL a --run-dir run of fig7 (with
# ARGS) once it has checkpointed a cell, resume it, and diff its
# artifacts against the clean run.
kill_and_resume() {
    local leg="$1"
    shift
    local run_dir="$WORK/run-$leg" out="$WORK/resumed-$leg"

    echo "== [$leg] interrupted run (SIGKILL after the first done cell) =="
    set +e
    python -m repro run fig7 --jobs 2 --run-dir "$run_dir" "$@" \
        --out "$out" > "$WORK/killed-$leg.log" 2>&1 &
    local pid=$!
    until grep -qs '"type": "done"' "$run_dir/manifest.jsonl"; do
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "error: [$leg] run exited before checkpointing a cell" >&2
            cat "$WORK/killed-$leg.log" >&2
            exit 1
        fi
        sleep 0.05
    done
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

    python -m repro runs status "$run_dir" | tee "$WORK/status-$leg.txt"
    if ! grep -Eq 'pending: +[1-9]' "$WORK/status-$leg.txt"; then
        echo "error: [$leg] no cell pending after the kill:" \
            "the resume would not start mid-sweep" >&2
        exit 1
    fi

    echo "== [$leg] resumed run =="
    python -m repro run fig7 --jobs 2 --resume "$run_dir" "$@" \
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
echo "kill-and-resume smoke passed: mid-sweep resume, artifacts byte-identical (both legs)"
