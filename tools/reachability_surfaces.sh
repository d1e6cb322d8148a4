#!/usr/bin/env bash
# Record which defs of src/repro the user surfaces call, then report.
#
#   tools/reachability_surfaces.sh OUT
#
# Runs from the repository root of a scratch copy: the stores, traces
# and saved tables go to a temporary directory, but perfbench/run.py
# writes its own results under perfbench/.  Surfaces: the experiments
# CLI (default and quick grids; loopback, TCP, fault, store and --workers
# variants; renders of fabric-swept stores), the store, obs, fabric and
# check CLIs as CI
# runs them, the examples, and the three perfbench workloads.  Tests,
# benchmarks/ and perfbench's pins are not surfaces.  Expect it to run
# several times longer than the commands alone.
set -u
OUT=$(realpath -m "${1:?usage: $0 OUT}")
ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$ROOT"
export PYTHONPATH="$ROOT/src"
rec() { python "$ROOT/tools/reachability.py" run "$OUT" -- "$@" > /dev/null 2>&1 || echo "exit $?: $*" >&2; }
X="python -m repro.experiments"

rec $X all --save "$WORK/all"
rec $X all --quick --save "$WORK/quick"
rec $X all --quick --store "$WORK/store" --workers 2 --metrics --progress
rec $X all --quick --store "$WORK/store" --metrics
rec $X E1 --quick --transport loopback --fault-seed 7 --workers 2 \
    --trace "$WORK/net.jsonl" --telemetry "$WORK/net-tel.jsonl" --metrics
rec $X E1 --quick --transport tcp
rec $X E1 --quick --trace "$WORK/base.jsonl" --profile "$WORK/prof.jsonl" \
    --telemetry "$WORK/base-tel.jsonl"
for id in E1 E14 E16; do
    rec python -m repro.fabric sweep $id --quick --workers 2 \
        --transport loopback --store "$WORK/fabric-cold"
    rec python -m repro.fabric sweep $id --quick --workers 2 \
        --store "$WORK/fabric-tcp"
done
rec $X E1 E14 E16 --quick --store "$WORK/fabric-cold"
rec $X E1 E14 E16 --quick --store "$WORK/fabric-tcp"
rec $X E16 --quick --metrics
rec python -m repro.store stats --dir "$WORK/store"
rec python -m repro.store verify --dir "$WORK/store"
rec python -m repro.store gc --dir "$WORK/store" --max-bytes 100000
rec python -m repro.obs tree "$WORK/net.jsonl"
rec python -m repro.obs critical-path "$WORK/net.jsonl"
rec python -m repro.obs top "$WORK/net.jsonl"
rec python -m repro.obs top "$WORK/prof.jsonl"
rec python -m repro.obs diff "$WORK/base.jsonl" "$WORK/net.jsonl"
rec python -m repro.check --seed 0 --cases 25
rec python -m repro.check --oracles byzantine-blackboard
rec python -m repro.check --oracles store-roundtrip
rec python -m repro.check --oracles fabric-scheduler
rec python -m repro.check --oracles topology-discipline
rec python -m repro.fabric sweep E1 --quick --store "$WORK/fab" --workers 3 \
    --transport loopback --fault-seed 7 --max-attempts 60 \
    --trace "$WORK/fab.jsonl" --telemetry "$WORK/fab-tel.jsonl" --metrics
rec python -m repro.fabric sweep E1 --quick --store "$WORK/fab-tcp" --workers 2
python "$ROOT/tools/reachability.py" run "$OUT" -- \
    python -m repro.fabric serve --store "$WORK/fab" --port 0 \
    > "$WORK/serve.log" 2>&1 &
SERVER=$!
for _ in $(seq 1 300); do
    grep -q "listening on" "$WORK/serve.log" && break
    sleep 0.1
done
PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/serve.log")
rec python -m repro.fabric loadtest --connect "127.0.0.1:$PORT" E1 --quick \
    --clients 4 --rounds 2 --expect-hits
pkill -TERM -P "$SERVER" 2>/dev/null
kill -TERM "$SERVER" 2>/dev/null
wait "$SERVER" 2>/dev/null
for example in examples/*.py; do rec python "$example"; done
for workload in exact-info protocol-runs sweep-serve; do
    rec python perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0
done
python "$ROOT/tools/reachability.py" report "$OUT"
