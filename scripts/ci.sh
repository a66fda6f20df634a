#!/usr/bin/env bash
# The one entry point for every CI lane. The workflows under
# .github/workflows and the local equivalents in TESTING.md call it, so a
# lane runs the same commands, with the same gates, on a laptop as in CI.
#
#   scripts/ci.sh --quick                      gofmt, vet, dyncq-lint, build, a check that the
#                                              dyncq binary links no test harness, shuffled tests
#   scripts/ci.sh --deep [gomaxprocs...]       race matrix, ten race passes over the tests of
#                                              the snapshot cache, delta capture and a
#                                              failed Load's read side, ten over the
#                                              enumerate-frame race tests and the
#                                              session write-path tests, a
#                                              fixed-seed torture soak, and on
#                                              the GOMAXPROCS=4 leg the server e2e run, the
#                                              three line-format fuzz targets (the update
#                                              parser against its reference, its
#                                              one-pass branch against its general
#                                              path, and the CLI's update-file reader
#                                              against the parser), the table fuzz
#                                              target, the item-index fuzz target,
#                                              the net-delta fuzz target, the
#                                              evaluator fuzz target, the core fuzz
#                                              target, the leaf-splice fuzz target and
#                                              the wire-session fuzz target, the two
#                                              benchmark gates and the
#                                              Go benchmarks
#   scripts/ci.sh --nightly [seed [duration]]  long randomised torture soak under -race
#
# --deep runs one leg per listed GOMAXPROCS value, 1 and 4 by default.
# --nightly's seed 0 (the default) means "derive one": the workflow run id
# in CI, the clock elsewhere; the duration defaults to 15m. Torture soaks
# write one repro command per failed scenario run to
# /tmp/torture-failures.txt, which the workflows upload on failure.
set -euo pipefail
cd "$(dirname "$0")/.."

failures=/tmp/torture-failures.txt

quick() {
	local bad
	# Source dirs only: vendor/ carries upstream formatting verbatim.
	for flags in -l "-s -l"; do
		# shellcheck disable=SC2086 # the flags split on purpose
		bad=$(gofmt $flags benchmark cmd internal pkg tools)
		if [ -n "$bad" ]; then
			echo "gofmt $flags lists:" >&2
			echo "$bad" >&2
			exit 1
		fi
	done
	go vet ./...
	# The project analyzer suite (internal/analysis) through the vet
	# driver; in GitHub Actions its findings become ::error annotations.
	if [ "${GITHUB_ACTIONS:-}" = true ]; then
		go run ./cmd/dyncq-lint -github ./...
	else
		go run ./cmd/dyncq-lint ./...
	fi
	go build ./...
	# The torture harness and the workload generators are test code: the
	# dyncq binary, which `dyncq serve` and the benchmark run, links
	# neither.
	bad=$(go list -deps ./cmd/dyncq | grep -Fx -e dyncq/internal/torture -e dyncq/internal/workload || true)
	if [ -n "$bad" ]; then
		echo "cmd/dyncq links test-only packages:" >&2
		echo "$bad" >&2
		exit 1
	fi
	# -shuffle=on flushes out inter-test state; the seed prints on failure.
	go test -shuffle=on ./...
}

# commit_p50 prints one workload's commit_p50_us from a short benchmark
# run; the run's own oracle checks fail the pipeline through its exit
# status.
commit_p50() {
	go run ./benchmark -workload "$1" -seconds 4 -trace 0 | tee /dev/stderr |
		awk -v w="$1" '$1 == w && $2 == "commit_p50_us" { print $3 }'
}

# result_size_gate: subscribe-small and subscribe-large commit the same
# batches into the same store and differ only in the subscribed result's
# size (≈300 vs ≈30k tuples), so a commit whose cost grows with |Q(D)|
# shows as a ratio. Both runs are made here, seconds apart: the ratio
# needs no cross-machine baseline.
result_size_gate() {
	local small large
	small=$(commit_p50 subscribe-small)
	large=$(commit_p50 subscribe-large)
	echo "commit_p50_us: subscribe-small $small us, subscribe-large $large us"
	awk -v s="$small" -v l="$large" 'BEGIN { exit !(s > 0 && l > 0 && l <= 3 * s) }'
}

# snapshot_advance_gate: the traced read-mix run pins the core `feed`
# query after every commit; with the delta armed by the cached snapshot
# and copy-on-write leaves every advance is a patch. Two exact counts,
# no timing and no tolerance.
snapshot_advance_gate() {
	go run ./benchmark -workload read-mix -seconds 4 -trace 1 | tee /dev/stderr |
		awk '$1 == "read-mix" && $2 == "snapshot.rebuilt" { rebuilt = $3 }
		     $1 == "read-mix" && $2 == "snapshot.patched" { patched = $3 }
		     END { print "snapshot.rebuilt", rebuilt, "snapshot.patched", patched
		           exit !(rebuilt == "0" && patched > 0) }'
}

deep_leg() {
	local n=$1
	echo "== deep lane, GOMAXPROCS=$n"
	GOMAXPROCS=$n go test -race -count=1 ./...
	# A commit stores each handle's advanced snapshot and calls its hook
	# before the version moves; lock-free pinners and evictors race that
	# order, and one race pass is thin cover for it. A failed Load must
	# leave that read side untouched.
	GOMAXPROCS=$n go test -race -count=10 ./pkg/dyncq \
		-run 'TestSnapshotPinRace|TestSnapshotEvictionDuringCommit|TestCaptureDeltas|TestWorkspaceSnapshotPinnedDuringFanOut|TestSnapshotAdvanceMatchesFreshPin|TestLoadFailureChangesNothing'
	# Pollers fill leaf blocks, and splice rebuilt leaves out of the
	# blocks their plans name, while a writer commits; the tests' own docs
	# ask for ten race passes. A session's reader and its writer goroutine
	# drain one outbox: the wire order of a subscribed committer, `ok
	# begin` mid-batch over net.Pipe, and a subscriber kept up beside a
	# pipelining writer hang on which of them drains when.
	GOMAXPROCS=$n go test -race -count=10 ./internal/server \
		-run 'TestEnumerateBlocksRaceWriter|TestEnumerateSpliceRaceWriter|TestSessionDeltaBeforeOwnReply|TestSessionInteractiveBatch|TestSessionSubscriberKeepsUp'
	# A deterministic slice of the nightly soak at a pinned base seed.
	GOMAXPROCS=$n go test ./internal/torture -race -run 'TestTortureSoak' \
		-torture.seed=1 -torture.duration=60s -torture.failure-file="$failures" -v
	# With one CPU concurrent clients are an interleaving illusion, and
	# the gates want real parallelism.
	[ "$n" = 4 ] || return 0
	GOMAXPROCS=$n go test -race ./internal/server -run 'TestE2E' -server.e2eclients=6 -count=1 -v
	# The line parser against the reference parser its test keeps and its
	# one-pass branch against its general path, the CLI's update-file
	# reader against the parser on one line, tuplekey.Table (the result
	# sets' and the index lists' dense table on a RefTable), the core engine's keyless A_v indexes (paths inserted and deleted
	# through the engine, checked with CheckInvariants) and the store's
	# NetDelta/ApplyNetDelta against map models, the evaluator —
	# the oracle and ivm's delta-join kernel — against brute force, and
	# cq.Core, which routing classifies by, against a brute-force
	# homomorphism search, the enumerate frames
	# spliced from rebuilt leaves' plans against the reference encoder and
	# a count of the tuples added, and a session's dispatcher — every
	# verb but subscribe, batches and junk — against one reply per request
	# and a mirror database, for a fixed budget each; a crasher lands in
	# testdata/fuzz to be committed.
	GOMAXPROCS=$n go test ./pkg/dyncq -run '^$' -fuzz '^FuzzParseUpdate$' -fuzztime 20s
	GOMAXPROCS=$n go test ./cmd/dyncq -run '^$' -fuzz '^FuzzReadUpdates$' -fuzztime 20s
	GOMAXPROCS=$n go test ./internal/stream -run '^$' -fuzz '^FuzzParseLine$' -fuzztime 20s
	GOMAXPROCS=$n go test ./internal/tuplekey -run '^$' -fuzz '^FuzzTable$' -fuzztime 20s
	GOMAXPROCS=$n go test ./internal/core -run '^$' -fuzz '^FuzzItemIndex$' -fuzztime 20s
	GOMAXPROCS=$n go test ./internal/dyndb -run '^$' -fuzz '^FuzzNetDelta$' -fuzztime 20s
	GOMAXPROCS=$n go test ./internal/eval -run '^$' -fuzz '^FuzzEvaluate$' -fuzztime 20s
	GOMAXPROCS=$n go test ./internal/cq -run '^$' -fuzz '^FuzzCore$' -fuzztime 20s
	GOMAXPROCS=$n go test ./internal/server -run '^$' -fuzz '^FuzzLeafSplice$' -fuzztime 20s
	GOMAXPROCS=$n go test ./internal/server -run '^$' -fuzz '^FuzzWireSession$' -fuzztime 20s
	result_size_gate
	snapshot_advance_gate
	# The Go benchmarks the gates and CHANGES.md cite: they must compile,
	# pass their own b.Fatal checks and print. No timing threshold. An odd
	# iteration count and a second repeat catch a benchmark whose state
	# outlives one run. go test exits 0 when a sub-benchmark fails on a
	# repeat of -count, so the awk fails the lane on any --- FAIL line.
	go test ./pkg/dyncq ./internal/ivm ./internal/core ./internal/server ./internal/stream ./internal/tuplekey -run '^$' \
		-bench 'Apply$|DeltaJoin|CapturedCommit|SnapshotAdvance|SnapshotLaggingReader|CoreUpdate|CommitBatch|EnumerateFrame|Rebuild|ParseLine|Table' \
		-benchtime 51x -count 2 -benchmem 2>&1 |
		awk '{ print } /^--- FAIL/ { failed = 1 } END { exit failed }'
}

deep() {
	local legs=("$@") n
	[ ${#legs[@]} -gt 0 ] || legs=(1 4)
	for n in "${legs[@]}"; do
		deep_leg "$n"
	done
}

nightly() {
	local seed=${1:-0} duration=${2:-15m}
	if [ "$seed" = 0 ]; then
		seed=${GITHUB_RUN_ID:-$(date +%s)}
	fi
	echo "soak: seed=$seed duration=$duration"
	go test ./internal/torture -race -run 'TestTortureSoak' \
		-torture.seed="$seed" -torture.duration="$duration" \
		-torture.failure-file="$failures" -timeout 55m -v
}

lane=${1:-}
shift || true
case "$lane" in
--quick) quick ;;
--deep) deep "$@" ;;
--nightly) nightly "$@" ;;
*)
	echo "usage: scripts/ci.sh --quick | --deep [gomaxprocs...] | --nightly [seed [duration]]" >&2
	exit 2
	;;
esac
