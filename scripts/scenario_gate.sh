#!/bin/sh
# scenario_gate.sh — the multi-tenant serving gate (make scenario-gate).
# Boots a 2-replica mpassd fleet with the scenarios/tenants.json allowlist
# behind mpass-gateway, then:
#
#   1. negative drill: runs the noisy-neighbor scenario with an impossible
#      p99 threshold (-scenario-max-p99 1ns) and requires mpass-load to
#      exit non-zero — proving a threshold violation really fails CI;
#   2. the real run: the noisy-neighbor scenario at its own thresholds —
#      p99, shed rate, per-tenant fairness bound, correctness == 1.0, and
#      Retry-After >= 1 on every 429 — must pass;
#   3. allowlist reload drill: SIGHUP replica 0, then an authenticated
#      burst proving the table survived the reload, and an
#      unauthenticated probe proving 401s still consume nothing.
#
# Emits BenchmarkScenarioNoisyNeighbor on stdout and writes
# $SCENARIO_BENCH_JSON (default BENCH_9.json) on first run (FORCE_BENCH=1
# regenerates).
set -eu

tmp="$(mktemp -d)"
pids=""
cleanup() {
	status=$?
	for p in $pids; do
		if kill -0 "$p" 2>/dev/null; then
			kill "$p" 2>/dev/null || true
			wait "$p" 2>/dev/null || true
		fi
	done
	rm -rf "$tmp"
	exit $status
}
trap cleanup EXIT INT TERM

go build -o "$tmp/mpassd" ./cmd/mpassd
go build -o "$tmp/mpass-gateway" ./cmd/mpass-gateway
go build -o "$tmp/mpass-load" ./cmd/mpass-load

# wait_addr FILE PID: the address file appears once the daemon is bound.
wait_addr() {
	i=0
	while [ ! -s "$1" ]; do
		i=$((i + 1))
		if [ "$i" -gt 1200 ]; then
			echo "scenario_gate: $1 never appeared" >&2
			exit 1
		fi
		if ! kill -0 "$2" 2>/dev/null; then
			echo "scenario_gate: daemon for $1 exited before listening" >&2
			exit 1
		fi
		sleep 0.1
	done
}

# Replica 0 trains (small corpus) and persists the models/ envelope
# directory; replica 1 loads the same directory. Both serve the scenarios/tenants.json allowlist.
n=0
replicas=""
for ra in 127.0.0.1:0 127.0.0.1:0; do
	"$tmp/mpassd" -addr "$ra" -addr-file "$tmp/r$n.addr" \
		-models "$tmp/models" -malware 24 -benign 24 \
		-max-queries 40 -tenants scenarios/tenants.json -drain 30s >&2 &
	pid=$!
	pids="$pids $pid"
	wait_addr "$tmp/r$n.addr" "$pid"
	eval "rpid$n=$pid"
	replicas="$replicas$(cat "$tmp/r$n.addr"),"
	n=$((n + 1))
done
replicas="${replicas%,}"

"$tmp/mpass-gateway" -addr 127.0.0.1:0 -addr-file "$tmp/gw.addr" \
	-replicas "$replicas" -health-interval 200ms -drain 30s >&2 &
gwpid=$!
pids="$pids $gwpid"
wait_addr "$tmp/gw.addr" "$gwpid"
gw="$(cat "$tmp/gw.addr")"

bench="$tmp/bench.txt"

# 1. Negative drill: an impossible p99 bound must make the scenario fail.
# If this invocation succeeds, the gate itself is broken — fail loudly.
if "$tmp/mpass-load" -addr "$gw" -scenario scenarios/noisy-neighbor.json \
	-scenario-max-p99 1ns >/dev/null 2>"$tmp/neg.log"; then
	echo "scenario_gate: NEGATIVE DRILL FAILED — impossible threshold did not fail the run" >&2
	exit 1
fi
echo "scenario_gate: negative drill ok (broken threshold exits non-zero)" >&2

# 2. The real run at the scenario's own thresholds.
"$tmp/mpass-load" -addr "$gw" -scenario scenarios/noisy-neighbor.json >"$bench"
cat "$bench"

# 3. Allowlist reload drill: SIGHUP re-reads the file in place; the fleet
# must keep serving authenticated traffic and keep rejecting anonymous
# probes afterwards.
kill -HUP "$rpid0"
sleep 0.3
r0="$(cat "$tmp/r0.addr")"
"$tmp/mpass-load" -addr "$r0" -api-key acme-key-1 \
	-clients 2 -requests 40 -samples 8 -seed 9 >/dev/null
# Anonymous traffic must still be rejected outright (401s make mpass-load
# exit non-zero); if this burst succeeds, auth fell open on reload.
if "$tmp/mpass-load" -addr "$r0" \
	-clients 1 -requests 4 -samples 2 -seed 10 >/dev/null 2>&1; then
	echo "scenario_gate: unauthenticated burst unexpectedly succeeded after reload" >&2
	exit 1
fi
echo "scenario_gate: SIGHUP reload drill ok (auth survives reload)" >&2

# Trajectory file: first run writes it, later runs leave history alone
# unless FORCE_BENCH=1 regenerates in place.
out="${SCENARIO_BENCH_JSON:-BENCH_9.json}"
if [ ! -f "$out" ]; then
	go run ./cmd/benchjson -out "$out" <"$bench" >/dev/null
	echo "scenario_gate: wrote $out" >&2
elif [ -n "${FORCE_BENCH:-}" ]; then
	go run ./cmd/benchjson -force -out "$out" <"$bench" >/dev/null
	echo "scenario_gate: rewrote $out (FORCE_BENCH)" >&2
else
	echo "scenario_gate: $out exists, not overwriting (FORCE_BENCH=1 to regenerate)" >&2
fi

# Graceful drain: gateway first, then replicas.
kill -TERM "$gwpid"; wait "$gwpid"
kill -TERM "$rpid0"; wait "$rpid0"
kill -TERM "$rpid1"; wait "$rpid1"
pids=""
echo "scenario_gate: graceful shutdown ok" >&2
