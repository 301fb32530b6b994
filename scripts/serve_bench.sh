#!/bin/sh
# serve_bench.sh — boot mpassd on a random port, drive it with mpass-load,
# and shut it down gracefully via SIGTERM. No curl: mpass-load does the
# /healthz preflight and the /metrics cross-check itself.
#
#   smoke  small corpus, short burst, one attack job  (make serve-smoke)
#   bench  bigger burst; stdout is `go test -bench`-style lines for
#          cmd/benchjson                               (make bench-json)
#   faults smoke corpus, attack jobs against a fault-injecting oracle
#          (hangs, transient errors, latency); every job must still reach
#          a terminal state and the SIGTERM drain must stay bounded
#                                                     (make serve-faults)
#   reload smoke corpus persisted as a per-engine envelope directory, then
#          mpass-load -reload swaps model generations mid-burst: every swap
#          must certify and land, every scan must carry a generation the
#          server really served, and /healthz must agree with the last swap
#                                                     (make reload-smoke)
set -eu

mode="${1:-smoke}"
daemonflags=""
loadflags=""
case "$mode" in
	smoke)
		mal=24; ben=24; clients=4; requests=120; attacks=1
		# Smoke also covers the quantized serving mode (int32 is the
		# certified <= 1e-6 format) and the O(chunk) streaming scan path:
		# a 2 MiB chunked upload that mpass-load cross-checks against the
		# scans_streamed / streamed_bytes counters.
		daemonflags="-quant int32"
		loadflags="-stream-mb 2"
		;;
	bench)
		mal=40; ben=40; clients=8; requests=600; attacks=0
		loadflags="-stream-mb 4"
		;;
	faults)
		mal=24; ben=24; clients=4; requests=60; attacks=3
		# Hang rate 0.2 exercises the job deadline; error rate 0.3 the
		# retry/breaker ladder; latency 0.3 the ctx-bounded delay path. The
		# short -job-deadline keeps hang-struck jobs (and the drain) fast.
		daemonflags="-fault-hang 0.2 -fault-error 0.3 -fault-latency 0.3 -fault-delay 20ms -job-deadline 10s"
		loadflags="-faults"
		;;
	reload)
		mal=24; ben=24; clients=4; requests=200; attacks=1
		# mpassd persists per-engine envelopes to its model directory at
		# boot and the reload loader re-reads them — identical bytes, so the
		# drill also proves a same-weights swap is score-invisible. int32
		# serving makes every swap pass the quant parity certification, not
		# just the health/finite gates.
		daemonflags="-quant int32"
		loadflags="-reload 3 -bench-name ServeReload"
		;;
	*) echo "usage: $0 [smoke|bench|faults|reload]" >&2; exit 2 ;;
esac

tmp="$(mktemp -d)"
pid=
cleanup() {
	status=$?
	if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
		kill "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
	fi
	rm -rf "$tmp"
	exit $status
}
trap cleanup EXIT INT TERM

go build -o "$tmp/mpassd" ./cmd/mpassd
go build -o "$tmp/mpass-load" ./cmd/mpass-load

# $daemonflags is deliberately unquoted: it is a per-mode flag list
# (quant serving in smoke, fault injection in faults).
# shellcheck disable=SC2086
"$tmp/mpassd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
	-models "$tmp/models" -malware "$mal" -benign "$ben" \
	-max-queries 40 -drain 30s $daemonflags >&2 &
pid=$!

# The address file appears once training finished and the socket is bound.
i=0
while [ ! -s "$tmp/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 1200 ]; then
		echo "serve_bench: mpassd never wrote its address" >&2
		exit 1
	fi
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "serve_bench: mpassd exited before listening" >&2
		exit 1
	fi
	sleep 0.1
done
addr="$(cat "$tmp/addr")"

# shellcheck disable=SC2086
"$tmp/mpass-load" -addr "$addr" \
	-clients "$clients" -requests "$requests" -attacks "$attacks" $loadflags

# Graceful drain: mpassd exits non-zero if in-flight work failed to finish.
kill -TERM "$pid"
wait "$pid"
pid=
echo "serve_bench: graceful shutdown ok" >&2
