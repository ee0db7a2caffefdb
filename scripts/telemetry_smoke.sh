#!/usr/bin/env bash
# telemetry_smoke.sh — end-to-end smoke test of the live telemetry layer.
#
# Runs a small dsegen sweep with the monitor endpoint up, curls /metrics and
# the JSON status page while the server lingers, and JSON round-trips a
# `dserun -chrome` export. Exits non-zero on any failure. The sweep's JSONL
# runlog is checked against the record structs by obs.ValidateRunlog in
# cmd/dsegen's TestRunGeneratesCSV.
#
# Usage:
#   scripts/telemetry_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
GEN_PID=""
trap '[[ -n "$GEN_PID" ]] && kill "$GEN_PID" 2>/dev/null; rm -rf "$TMP"' EXIT

echo "== build"
go build -o "$TMP/dsegen" ./cmd/dsegen
go build -o "$TMP/dserun" ./cmd/dserun

echo "== sweep with monitor endpoint"
"$TMP/dsegen" -samples 30 -seed 7 -workers 2 -out "$TMP/sweep.csv" \
	-http 127.0.0.1:0 -http-linger 60s -q 2>"$TMP/dsegen.err" &
GEN_PID=$!
# dsegen binds an ephemeral port and prints "monitor: http://HOST:PORT/" on
# stderr before the sweep starts; wait for it, then poll the endpoints.
ADDR=""
for i in $(seq 1 100); do
	ADDR=$(sed -n 's|^monitor: http://\([^/]*\)/.*|\1|p' "$TMP/dsegen.err" 2>/dev/null | head -1)
	[[ -n "$ADDR" ]] && break
	kill -0 "$GEN_PID" 2>/dev/null || { cat "$TMP/dsegen.err" >&2; echo "FAIL: dsegen exited early" >&2; exit 1; }
	sleep 0.2
done
[[ -n "$ADDR" ]] || { echo "FAIL: monitor address never printed" >&2; exit 1; }
echo "-- monitor at $ADDR"
METRICS=""
for i in $(seq 1 100); do
	if METRICS=$(curl -sf "http://$ADDR/metrics" 2>/dev/null) &&
		grep -q '^armdse_runs_total' <<<"$METRICS"; then
		break
	fi
	METRICS=""
	sleep 0.2
done
if [[ -z "$METRICS" ]]; then
	echo "FAIL: /metrics never served armdse_runs_total" >&2
	exit 1
fi
echo "-- /metrics sample:"
grep -E '^(# TYPE )?armdse_(runs_total|sweep_done|progcache)' <<<"$METRICS" | sed -n '1,8p'

# Wait for the sweep to finish: the journal's summary line is flushed after
# the dataset is saved, and the server lingers past it (-http-linger).
for i in $(seq 1 300); do
	grep -q '"type":"summary"' "$TMP/sweep.csv.runlog.jsonl" 2>/dev/null && break
	sleep 0.2
done
grep -q '"type":"summary"' "$TMP/sweep.csv.runlog.jsonl" ||
	{ echo "FAIL: sweep never finished" >&2; exit 1; }

echo "-- /status JSON:"
curl -sf "http://$ADDR/status" | python3 -m json.tool >"$TMP/status.txt"
head -20 "$TMP/status.txt"
curl -sf "http://$ADDR/debug/vars" | python3 -m json.tool >/dev/null
echo "-- /debug/pprof reachable:"
curl -sf "http://$ADDR/debug/pprof/cmdline" >/dev/null && echo ok

kill "$GEN_PID" 2>/dev/null || true
wait "$GEN_PID" 2>/dev/null || true
GEN_PID=""
[[ -s "$TMP/sweep.csv" ]] || { echo "FAIL: no dataset written" >&2; exit 1; }

echo "== dserun Chrome trace round-trip"
"$TMP/dserun" -app miniBUDE -chrome "$TMP/trace.json"
python3 - "$TMP/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    tr = json.load(f)
evs = tr["traceEvents"]
slices = [e for e in evs if e["ph"] == "X"]
assert slices, "no complete events in trace"
assert all(e["ph"] in ("X", "M") for e in evs), "unexpected phase"
assert any(e["pid"] == 2 for e in slices), "no stall tracks"
print(f"trace OK: {len(evs)} events, {len(slices)} slices")
EOF

echo "telemetry smoke: PASS"
