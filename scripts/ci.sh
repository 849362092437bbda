#!/bin/sh
# CI gate: formatting, vet, build, and the full test suite under the race
# detector. Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== janalyze determinism lint =="
# Repository-wide map-iteration lint: any `range` over a map feeding an
# emission or serialisation path is a nondeterministic-output bug (Go map
# order is random); the accepted idiom is collect-then-sort. janalyze exits
# nonzero on any finding.
go run ./cmd/janalyze ./...

echo "== focused vet + race: anserve, cluster, fuzz, jtsan, rewrite, telemetry =="
# The analysis service, the sharded fleet, and the fuzzing campaigns are the
# heaviest concurrent subsystems; the telemetry layer is scraped concurrently
# by daemon handlers, the rewrite backends share plan caches across worker
# goroutines, and jtsan's quarantine/generation runtime must stay strictly
# per-machine (its parallel test runs detection on concurrent machines).
# Vet and race-check them explicitly (count=1 defeats the test cache so the
# race detector actually re-executes them).
go vet ./internal/anserve ./internal/cluster ./internal/fuzz \
	./internal/jtsan ./internal/rewrite ./internal/telemetry
go test -race -count=1 ./internal/anserve ./internal/cluster ./internal/fuzz \
	./internal/jtsan ./internal/rewrite ./internal/telemetry

echo "== jfuzz smoke =="
# Deterministic fuzz smoke: fixed seed, both domains, fails the build on any
# oracle violation, crash or missed planted bug.
go run ./cmd/jfuzz -seed 1 -n 200 -workers 4 -o /tmp/jfuzz-ci.json

echo "== jvet proof replay =="
# Independent replay of every VSA elision/narrowing proof over the checked-in
# example modules and all 28 workload closures — including every no-escape
# claim backing a jtsan-elide'd generation check — plus the structural
# verifier over every statically rewritten module; exits nonzero on any
# claim that cannot be re-proven or any rewrite that breaks a structural
# guarantee.
go run ./cmd/jvet

echo "== juliet temporal suites (CWE-416/415) =="
# Temporal-safety acceptance gate: the 24-case use-after-free and 24-case
# double-free suites must show 0 false negatives and 0 false positives
# under jtsan, and an identical confusion matrix under jtsan-elide (the
# non-short elide reruns). count=1 defeats the cache so the gate re-runs.
go test -count=1 -run 'CWE416|CWE415|Suite416|Suite415' ./internal/juliet

echo "== jlint must-tier silence =="
# Static bug detection over every module in all 28 safe workload closures:
# the must-alarm tier is a zero-false-positive contract, so any must-alarm
# on the suite is either a genuine bug in a workload or a soundness
# regression in the analyzer — both fail CI (-fail-on-must exits 1).
go run ./cmd/jlint -parallel 4 -fail-on-must -o /tmp/jlint-ci.json

echo "== rewrite bake-off smoke =="
# Statically rewrite a workload subset and gate three properties: the
# structural verifier passes over every rewritten module (-verify), all
# three backends — dynamic DBM, static AOT, hybrid fail-over — report
# identical sanitizer verdicts, exit status and output bytes (-parity), and
# the rewritten cells run at all. jrw exits nonzero on any violation.
go run ./cmd/jrw -bench mcf,lbm,hmmer,omnetpp -verify -parity

echo "== registry CLI smoke =="
# Every non-artifact internal/registry name must work through both offline
# front ends: janitizer writes the rule files and jrun runs a clean program
# under them, each exiting 0 with nothing on stderr. The names come from
# janitizer's -tool usage (built from the registry) and jrun must advertise
# the same list, so a command-line front end drifting from the registry
# fails here.
REG_DIR=$(mktemp -d)
go build -o "$REG_DIR/" ./cmd/jcc ./cmd/janitizer ./cmd/jrun
cat > "$REG_DIR/hello.c" <<'EOC'
int main() {
    char *msg = malloc(16);
    strcpy(msg, "hello janitizer");
    puts(msg, strlen(msg));
    free(msg);
    return 0;
}
EOC
(cd "$REG_DIR" && ./jcc -O2 hello.c >/dev/null)
tool_names() {
	"$REG_DIR/$1" -h 2>&1 | sed -n 's/^.*security technique: \(.*\) (default.*$/\1/p' | tr -d ','
}
REG_NAMES=$(tool_names janitizer)
if [ -z "$REG_NAMES" ] || [ "$REG_NAMES" != "$(tool_names jrun)" ]; then
	echo "registry smoke: janitizer and jrun advertise different tools" >&2
	exit 1
fi
for n in $REG_NAMES; do
	if ! "$REG_DIR/janitizer" -tool "$n" -outdir "$REG_DIR" "$REG_DIR/hello.jef" \
		>/dev/null 2>"$REG_DIR/err" || [ -s "$REG_DIR/err" ]; then
		echo "registry smoke: janitizer -tool $n failed:" >&2
		cat "$REG_DIR/err" >&2
		exit 1
	fi
	if ! "$REG_DIR/jrun" -tool "$n" -rules "$REG_DIR" "$REG_DIR/hello.jef" \
		>/dev/null 2>"$REG_DIR/err" || [ -s "$REG_DIR/err" ]; then
		echo "registry smoke: jrun -tool $n failed:" >&2
		cat "$REG_DIR/err" >&2
		exit 1
	fi
done
rm -rf "$REG_DIR"
echo "registry smoke: $(echo $REG_NAMES | wc -w) tools analyzed and run cleanly"

echo "== janitizerd observability smoke =="
# Boot the daemon on an ephemeral port and check its observability surface:
# GET /metrics serves Prometheus text including the janitizer_build_info
# deploy-identity gauge, GET /violations serves the (empty) structured
# violation log, and GET /trace serves the span export. Requires curl;
# skipped where unavailable.
if command -v curl >/dev/null 2>&1; then
	go build -o /tmp/janitizerd-ci ./cmd/janitizerd
	/tmp/janitizerd-ci -addr 127.0.0.1:7749 -quiet &
	JD_PID=$!
	trap 'kill "$JD_PID" 2>/dev/null || true' EXIT
	ok=0
	for _ in 1 2 3 4 5 6 7 8 9 10; do
		if curl -sf http://127.0.0.1:7749/metrics | grep -q '^janitizer_analyze_submitted_total'; then
			ok=1
			break
		fi
		sleep 0.3
	done
	if [ "$ok" = "1" ]; then
		if ! curl -sf http://127.0.0.1:7749/metrics | grep -q '^janitizer_build_info{'; then
			echo "janitizerd: /metrics lacks janitizer_build_info" >&2
			ok=0
		elif [ "$(curl -sf http://127.0.0.1:7749/violations)" != "[]" ]; then
			echo "janitizerd: GET /violations did not serve the empty log" >&2
			ok=0
		elif ! curl -sf 'http://127.0.0.1:7749/trace?limit=5' >/dev/null; then
			echo "janitizerd: GET /trace?limit=5 failed" >&2
			ok=0
		fi
	fi
	kill "$JD_PID" 2>/dev/null || true
	trap - EXIT
	if [ "$ok" != "1" ]; then
		echo "janitizerd: observability smoke failed" >&2
		exit 1
	fi
else
	echo "janitizerd smoke: skipped (no curl)"
fi

echo "== 3-node fleet smoke =="
if ! command -v curl >/dev/null 2>&1; then
	echo "fleet smoke: skipped (no curl)"
else
	# Launch a 3-member fleet plus a single-node reference and replay a small
	# mixed workload through jload with -verify (every node, baseline included,
	# must return byte-identical results) and -require-peer-fill (the fleet's
	# janitizer_cluster_peer_fill_total must grow). Then kill one member and
	# replay a hot workload against the survivors: a dead shard owner must
	# degrade to local compute with zero failed requests.
	go build -o /tmp/janitizerd-ci ./cmd/janitizerd
	go build -o /tmp/jload-ci ./cmd/jload
	FLEET_DIR=$(mktemp -d)
	FLEET_PEERS="127.0.0.1:7751,127.0.0.1:7752,127.0.0.1:7753"
	/tmp/janitizerd-ci -quiet -addr 127.0.0.1:7750 -cachedir "$FLEET_DIR/single" &
	SINGLE_PID=$!
	/tmp/janitizerd-ci -quiet -addr 127.0.0.1:7751 -cachedir "$FLEET_DIR/n1" -peers "$FLEET_PEERS" &
	N1_PID=$!
	/tmp/janitizerd-ci -quiet -addr 127.0.0.1:7752 -cachedir "$FLEET_DIR/n2" -peers "$FLEET_PEERS" &
	N2_PID=$!
	/tmp/janitizerd-ci -quiet -addr 127.0.0.1:7753 -cachedir "$FLEET_DIR/n3" -peers "$FLEET_PEERS" &
	N3_PID=$!
	trap 'kill "$SINGLE_PID" "$N1_PID" "$N2_PID" "$N3_PID" 2>/dev/null || true' EXIT
	for port in 7750 7751 7752 7753; do
		ok=0
		for _ in 1 2 3 4 5 6 7 8 9 10; do
			if curl -sf "http://127.0.0.1:$port/readyz" >/dev/null 2>&1; then
				ok=1
				break
			fi
			sleep 0.3
		done
		if [ "$ok" != "1" ]; then
			echo "fleet smoke: node on :$port never became ready" >&2
			exit 1
		fi
	done
	# jload exits nonzero on any failed request, result divergence, or zero
	# peer fills — each of those fails CI here.
	/tmp/jload-ci -quiet -addrs "$FLEET_PEERS" -single 127.0.0.1:7750 \
		-n 60 -c 4 -modules 8 -verify -require-peer-fill -o /tmp/jload-ci.json
	kill "$N3_PID" 2>/dev/null || true
	wait "$N3_PID" 2>/dev/null || true
	# Modules whose home shard was :7753 must now compute locally — still
	# zero errors or jload exits nonzero.
	/tmp/jload-ci -quiet -addrs 127.0.0.1:7751,127.0.0.1:7752 \
		-mix hot -n 40 -c 4 -modules 8 -o /tmp/jload-ci-degraded.json
	kill "$SINGLE_PID" "$N1_PID" "$N2_PID" 2>/dev/null || true
	trap - EXIT
	rm -rf "$FLEET_DIR"
	echo "fleet smoke: byte-identical, peer fills observed, node-kill degraded cleanly"
fi

echo "== bench + profile + rewrite bake-off =="
# Full-suite scheme sweep writing BENCH_JANITIZER.json, the attributed
# BENCH_PROFILE.json, and the three-way rewriting bake-off BENCH_REWRITE.json.
# In short mode (CI_SHORT=1) the full 28-workload sweeps are replaced by
# two-workload smokes that still enforce the exact component-sum identity
# (Profile errors on any mismatch) and the bake-off's native-parity checks
# (RunBackend hard-errors on any exit/output divergence).
if [ "${CI_SHORT:-0}" = "1" ]; then
	echo "bench: full sweep skipped (CI_SHORT=1); running profile + rewrite + static + jtsan + obs smokes"
	go run ./cmd/jexp -parallel 4 -o /tmp/profile-smoke.json profile mcf lbm
	go run ./cmd/jexp -parallel 4 rewrite mcf lbm > /tmp/rewrite-smoke.json
	go run ./cmd/jexp -parallel 4 -o /tmp/static-smoke.json static
	go run ./cmd/jexp -parallel 4 jtsan mcf lbm > /tmp/jtsan-smoke.json
	# The obs smoke still enforces the full disabled-path invariant: every
	# cell's plain and observed runs must be cycle-exact bit-identical (jexp
	# obs hard-errors on any divergence).
	go run ./cmd/jexp -parallel 4 obs mcf lbm > /tmp/obs-smoke.json
else
	scripts/bench.sh
fi

echo "CI OK"
