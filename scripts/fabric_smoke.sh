#!/usr/bin/env bash
# fabric_smoke.sh — end-to-end smoke test of the distributed sweep fabric.
#
# Builds dsegen and dsereport and collects a 300-config single-process
# reference dataset. A dsegen -workers 1 run of the same sweep is killed
# with SIGKILL part-way; a run with another -seed must refuse its journal
# (exit 1, journal and runlog unchanged), and a rerun with the same flags
# must finish it byte-identical to the reference. Then the same run is
# re-collected through a dsegen -fleet coordinator with two
# dsegen -worker processes on an ephemeral port. The fleet dataset must be
# byte-identical to the reference (`cmp`), its <out>.journal must be
# removed, the coordinator's /metrics and /status endpoints must serve the
# fleet accounting, and the coordinator runlog must record exactly one
# grant and one complete per 8-config lease, with no expiry. Then an
# interrupted dsegen run is finished by a fleet on the same -out whose
# coordinator is killed mid-run and restarted with the same flags; that
# dataset must be byte-identical to the reference too. Exits non-zero on
# any failure. The fleet runlog's records are checked against the record
# structs by obs.ValidateRunlog in cmd/dsegen's
# TestRunFleetMatchesSingleProcess.
#
# Usage:
#   scripts/fabric_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SAMPLES=300
SEED=11
LEASE=8
TMP="$(mktemp -d)"
COORD_PID=""
trap '[[ -n "$COORD_PID" ]] && kill "$COORD_PID" 2>/dev/null; rm -rf "$TMP"' EXIT

echo "== build"
go build -o "$TMP/dsegen" ./cmd/dsegen
go build -o "$TMP/dsereport" ./cmd/dsereport

echo "== single-process reference ($SAMPLES configs)"
"$TMP/dsegen" -samples "$SAMPLES" -seed "$SEED" -out "$TMP/ref.csv" -runlog none -q

echo "== dsegen killed part-way, then rerun with the same flags"
RERUN=("$TMP/dsegen" -samples "$SAMPLES" -seed "$SEED" -out "$TMP/rerun.csv" -workers 1 -q)
"${RERUN[@]}" &
GEN_PID=$!
sleep 3
kill -9 "$GEN_PID"
wait "$GEN_PID" 2>/dev/null && { echo "FAIL: dsegen finished before it was killed" >&2; exit 1; }
echo "-- killed with $(($(wc -l <"$TMP/rerun.csv.journal") - 1)) configs journaled"
SUMS=$(sha256sum "$TMP/rerun.csv.journal" "$TMP/rerun.csv.runlog.jsonl")
RC=0
"$TMP/dsegen" -samples "$SAMPLES" -seed $((SEED + 1)) -out "$TMP/rerun.csv" -workers 1 -q 2>"$TMP/foreign.err" || RC=$?
((RC == 1)) || { echo "FAIL: a run with another -seed exited $RC on the journal, want 1" >&2; exit 1; }
[[ "$(sha256sum "$TMP/rerun.csv.journal" "$TMP/rerun.csv.runlog.jsonl")" == "$SUMS" ]] ||
	{ echo "FAIL: the refused run changed the journal or the runlog" >&2; exit 1; }
echo "-- another -seed refused: $(cat "$TMP/foreign.err")"
"${RERUN[@]}"
cmp "$TMP/ref.csv" "$TMP/rerun.csv"
[[ -e "$TMP/rerun.csv.journal" ]] && { echo "FAIL: journal not removed" >&2; exit 1; }
echo "-- cmp OK: the rerun resumed the journal"

# start_coord OUT LINGER starts dsegen -fleet on an ephemeral port,
# collecting to OUT, and sets COORD_PID and ADDR. The coordinator prints
# "coordinator: http://HOST:PORT/" on stderr before granting leases.
start_coord() {
	"$TMP/dsegen" -samples "$SAMPLES" -seed "$SEED" -out "$1" \
		-fleet 127.0.0.1:0 -lease "$LEASE" -expiry 30s -http-linger "$2" -q \
		>"$TMP/coord.out" 2>"$TMP/coord.err" &
	COORD_PID=$!
	ADDR=""
	for i in $(seq 1 100); do
		ADDR=$(sed -n 's|^coordinator: http://\([^/]*\)/.*|\1|p' "$TMP/coord.err" 2>/dev/null | head -1)
		[[ -n "$ADDR" ]] && break
		kill -0 "$COORD_PID" 2>/dev/null || { cat "$TMP/coord.err" >&2; echo "FAIL: the coordinator exited early" >&2; exit 1; }
		sleep 0.2
	done
	[[ -n "$ADDR" ]] || { echo "FAIL: coordinator address never printed" >&2; exit 1; }
	echo "-- coordinator at $ADDR"
}

echo "== coordinator + 2 workers"
start_coord "$TMP/fleet.csv" 5s

"$TMP/dsegen" -worker "http://$ADDR" -worker-name smoke-a -q &
WA=$!
"$TMP/dsegen" -worker "http://$ADDR" -worker-name smoke-b -q &
WB=$!
wait "$WA" || { echo "FAIL: worker a failed" >&2; exit 1; }
wait "$WB" || { echo "FAIL: worker b failed" >&2; exit 1; }

# The coordinator lingers after writing the dataset; poll its fleet
# accounting while it is still up.
METRICS=$(curl -sf "http://$ADDR/metrics" || true)
if ! grep -q "^armdse_fabric_rows_total $SAMPLES\$" <<<"$METRICS"; then
	echo "FAIL: /metrics does not report $SAMPLES fabric rows" >&2
	grep '^armdse_fabric' <<<"$METRICS" >&2 || true
	exit 1
fi
echo "-- /metrics sample:"
grep -E '^armdse_fabric_(rows_total|lease_grants_total|done)' <<<"$METRICS"

echo "== fleet-aggregated telemetry"
if ! grep -q '^armdse_fleet_workers 2$' <<<"$METRICS"; then
	echo "FAIL: /metrics does not report 2 fleet workers" >&2
	grep '^armdse_fleet' <<<"$METRICS" >&2 || true
	exit 1
fi
for series in \
	'armdse_fleet_worker_busy_seconds{worker="smoke-a"}' \
	'armdse_fleet_worker_busy_seconds{worker="smoke-b"}' \
	'armdse_fleet_runs_total{'; do
	grep -qF "$series" <<<"$METRICS" ||
		{ echo "FAIL: /metrics missing fleet series $series" >&2; exit 1; }
done
echo "-- fleet series:"
grep -E '^armdse_fleet_(workers|worker_busy_fraction)' <<<"$METRICS"
curl -sf "http://$ADDR/status" | python3 -c '
import json, sys
st = json.load(sys.stdin)
assert st["done"] == st["total"], (st["done"], st["total"])
assert len(st["workers"]) == 2, st["workers"]
assert st["straggler_lag_s"] > 0, st
for w in st["workers"]:
    assert w["busy_s"] > 0 and 0 < w["busy_frac"] <= 1, w
    assert not w["straggler"], w
print("-- /status: done {done}/{total}, workers {w}".format(done=st["done"], total=st["total"], w=["{name} busy {busy_frac:.0%}".format(**x) for x in st["workers"]]))
'

wait "$COORD_PID" || { cat "$TMP/coord.err" >&2; echo "FAIL: the coordinator failed" >&2; exit 1; }
COORD_PID=""
cat "$TMP/coord.out"

echo "== fleet dataset must be byte-identical to the reference"
cmp "$TMP/ref.csv" "$TMP/fleet.csv"
echo "-- cmp OK ($(wc -c <"$TMP/fleet.csv") bytes)"
[[ -e "$TMP/fleet.csv.journal" ]] && { echo "FAIL: journal not removed" >&2; exit 1; }

echo "== coordinator runlog lease events"
# One-chunk leases: every lease is granted once and completed by one upload.
LEASES=$(((SAMPLES + LEASE - 1) / LEASE))
for event in grant complete expire; do
	N=$(grep -c "\"type\":\"lease\",\"event\":\"$event\"" "$TMP/fleet.csv.runlog.jsonl" || true)
	WANT=$LEASES
	[[ $event == expire ]] && WANT=0
	((N == WANT)) || { echo "FAIL: runlog records $N lease $event events, want $WANT" >&2; exit 1; }
done
echo "-- runlog: $LEASES leases, each granted and completed once, none expired"

echo "== dsereport on the smoke runlog"
"$TMP/dsereport" "$TMP/fleet.csv.runlog.jsonl"
"$TMP/dsereport" -format json -out "$TMP/report.json" "$TMP/fleet.csv.runlog.jsonl"
python3 - "$TMP/report.json" "$SAMPLES" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
run = doc["runs"][0]
assert run["fleet"] and run["workers"] == 2, run
assert run["rows"] + run["failed"] == int(sys.argv[2]), run
assert run["leases"]["grants"] > 0, run["leases"]
names = [w["name"] for w in run["worker_util"]]
assert names == ["smoke-a", "smoke-b"], names
for w in run["worker_util"]:
    assert w["busy_s"] > 0 and 0 < w["busy_frac"] <= 1, w
print("-- dsereport: {rows} rows, {w} workers, {g} lease grants".format(
    rows=run["rows"], w=run["workers"], g=run["leases"]["grants"]))
EOF
"$TMP/dsereport" -format trace -out "$TMP/fleet.trace.json" "$TMP/fleet.csv.runlog.jsonl"
python3 -c '
import json, sys
tr = json.load(open(sys.argv[1]))
evs = tr["traceEvents"]
assert any(e["ph"] == "X" for e in evs), "no lease slices"
threads = [e for e in evs if e["ph"] == "M" and e["name"] == "thread_name"]
assert len(threads) == 2, threads
print("-- trace: {n} events, {t} worker tracks".format(n=len(evs), t=len(threads)))
' "$TMP/fleet.trace.json"

echo "== interrupted dsegen run finished by a fleet on the same -out"
"$TMP/dsegen" -samples "$SAMPLES" -seed "$SEED" -out "$TMP/cross.csv" -workers 1 -runlog none -q &
GEN_PID=$!
sleep 3
kill -INT "$GEN_PID"
wait "$GEN_PID" && { echo "FAIL: dsegen finished before it was interrupted" >&2; exit 1; }
START=$(($(wc -l <"$TMP/cross.csv.journal") - 1))
echo "-- dsegen journaled $START configs"
start_coord "$TMP/cross.csv" 2s
"$TMP/dsegen" -worker "http://$ADDR" -worker-name cross-a -q 2>/dev/null &
"$TMP/dsegen" -worker "http://$ADDR" -worker-name cross-b -q 2>/dev/null &
# Kill the coordinator once the fleet has added rows of its own.
for i in $(seq 1 300); do
	DONE=$(curl -sf "http://$ADDR/status" | python3 -c 'import json, sys; print(json.load(sys.stdin)["done"])' || echo 0)
	((DONE >= START + 16)) && break
	sleep 0.1
done
kill -9 "$COORD_PID"
wait "$COORD_PID" 2>/dev/null || true
COORD_PID=""
wait || true # the workers lose their coordinator and exit
echo "-- coordinator killed at $DONE/$SAMPLES; restarting with the same flags"
start_coord "$TMP/cross.csv" 2s
"$TMP/dsegen" -worker "http://$ADDR" -worker-name cross-c -q &
WC=$!
"$TMP/dsegen" -worker "http://$ADDR" -worker-name cross-d -q &
WD=$!
wait "$WC" || { echo "FAIL: worker c failed" >&2; exit 1; }
wait "$WD" || { echo "FAIL: worker d failed" >&2; exit 1; }
wait "$COORD_PID" || { cat "$TMP/coord.err" >&2; echo "FAIL: the restarted coordinator failed" >&2; exit 1; }
COORD_PID=""
RESUMED=$(head -1 "$TMP/cross.csv.runlog.jsonl" | python3 -c 'import json, sys; print(json.load(sys.stdin)["resumed"])')
((RESUMED >= DONE)) || { echo "FAIL: restarted coordinator resumed $RESUMED rows, $DONE were done" >&2; exit 1; }
cmp "$TMP/ref.csv" "$TMP/cross.csv"
[[ -e "$TMP/cross.csv.journal" ]] && { echo "FAIL: journal not removed" >&2; exit 1; }
echo "-- cmp OK: resumed $RESUMED journaled rows"

echo "fabric smoke: PASS"
