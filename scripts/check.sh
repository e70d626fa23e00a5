#!/bin/sh
# check.sh — the repo's full verification gate: formatting, vet, build, a
# link-closure check, tests, a run of every example, the bench module's
# build, tests and pdrvet run, race detection on the concurrent packages, a
# service soak at three core counts, a fuzz smoke pass over the geometry
# invariants and the decoders, a one-iteration run of the hot-path
# benchmarks no pin test calls, and a dangling-path and dangling-section
# check on the docs. What `go test ./...` checks runs there only: the
# allocs/op pins, the golden answers and transcript, pdrvet over this module
# and its analyzer inventory are tier-1 tests.
#
# Usage: scripts/check.sh        (from the module root)
#
# FUZZ_SECS overrides the per-target fuzz smoke budget (default 5):
#   FUZZ_SECS=30 scripts/check.sh   # deeper nightly run
#   FUZZ_SECS=1 scripts/check.sh    # faster local loop
#
# Every step must pass; the script stops at the first failure.
set -eu

FUZZ_SECS=${FUZZ_SECS:-5}

cd "$(dirname "$0")/.."

step() {
	echo ""
	echo "==> $*"
}

step "gofmt (no diffs allowed)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "ok"

step "go vet ./..."
go vet ./...

step "go build ./..."
go build ./...

step "link closure (every internal package is reachable from the library, a binary or an example)"
# A package kept alive only by its own tests fails here. The one exception:
# internal/shard is the shim the frozen bench/layers compiles against; its
# New returns core.NewServer(cfg) and ignores the partition count it is given.
reachable=$(go list -deps . ./cmd/... ./examples/...)
for pkg in $(go list ./internal/...); do
	[ "$pkg" = "pdr/internal/shard" ] && continue
	if ! echo "$reachable" | grep -qx "$pkg"; then
		echo "$pkg is linked by no binary, example or the root package" >&2
		exit 1
	fi
done
echo "ok"

step "go test ./..."
go test ./...

step "examples run (each exits 0: they are the public API's end-to-end callers)"
for ex in examples/*/; do
	if ! go run "./$ex" >/dev/null; then
		echo "$ex exited non-zero" >&2
		exit 1
	fi
done
echo "ok"

step "bench module (its own module: tier-1 does not build it, a product API change can still break it)"
go build -C bench ./...
go test -C bench ./...
go run -C bench pdr/cmd/pdrvet ./...

step "go test -race (service: the concurrent HTTP surface, instrumented)"
go test -race ./internal/service

step "service soak (-count=10 at GOMAXPROCS 1, 2, 4: green means green on any core count)"
# The allocs/op pins are left to the tests step: testing.AllocsPerRun counts
# at GOMAXPROCS 1 whatever the soak sets, so a soak run would measure the
# same program again.
for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -count=10 -skip 'Allocs$' ./internal/service
done

step "go test -race (engine: writers vs readers on the one engine lock, the slot-parallel surface, kernel scratch pools, result cache)"
go test -race ./internal/core ./internal/pa ./internal/cheb ./internal/dh ./internal/sweep ./internal/parallel ./internal/storage ./internal/cache

step "telemetry (race on the atomic registry + trace store)"
go test -race ./internal/telemetry ./internal/tracestore

step "fuzz smoke: geometry area identity (${FUZZ_SECS}s)"
go test -run '^$' -fuzz FuzzOutlineAreaIdentity -fuzztime "${FUZZ_SECS}s" ./internal/geom/

step "fuzz smoke: band-ordered union == CoalesceInPlace, bit for bit (${FUZZ_SECS}s)"
go test -run '^$' -fuzz FuzzCoalesceBandOrderedMatchesInPlace -fuzztime "${FUZZ_SECS}s" ./internal/geom/

step "fuzz smoke: sweep-vs-oracle refinement (${FUZZ_SECS}s)"
go test -run '^$' -fuzz FuzzDenseRectsMatchesOracle -fuzztime "${FUZZ_SECS}s" ./internal/sweep/

step "fuzz smoke: row sweep == per-cell reference kernel, bit for bit (${FUZZ_SECS}s)"
go test -run '^$' -fuzz FuzzDenseRectsRowMatchesPerCell -fuzztime "${FUZZ_SECS}s" ./internal/sweep/

step "fuzz smoke: reply float formatting == encoding/json (${FUZZ_SECS}s)"
go test -run '^$' -fuzz FuzzAppendFloatMatchesEncodingJSON -fuzztime "${FUZZ_SECS}s" ./internal/service/

step "fuzz smoke: AxisBounds == the per-degree Bound it replaced, bit for bit (${FUZZ_SECS}s)"
go test -run '^$' -fuzz FuzzAxisBoundsMatchesBound -fuzztime "${FUZZ_SECS}s" ./internal/cheb/

step "fuzz smoke: the /v1/updates scanner == encoding/json wherever it answers (${FUZZ_SECS}s)"
go test -run '^$' -fuzz FuzzDecodeUpdatesMatchesEncodingJSON -fuzztime "${FUZZ_SECS}s" ./internal/wire/

step "fuzz smoke: gridded Subtract == the quadratic reference, bit for bit (${FUZZ_SECS}s)"
go test -run '^$' -fuzz FuzzSubtractMatchesReference -fuzztime "${FUZZ_SECS}s" ./internal/geom/

step "hotpath benchmark smoke (-benchtime=1x: the snapshot and interval benchmarks and the box-factor ablations, which no pin test calls, compile and run)"
go test -run '^$' -bench 'BenchmarkBoxFactors|BenchmarkSnapshot|BenchmarkIntervalPA$' -benchtime=1x ./internal/cheb ./internal/core >/dev/null
echo "ok"

step "doc paths resolve (a doc that names a file or package names one that exists)"
# CHANGES.md and ROADMAP.md are history and bench/ is frozen: not checked.
dangling=0
for doc in README.md DESIGN.md EXPERIMENTS.md docs/*.md .claude/skills/verify/SKILL.md; do
	for ref in $(grep -oE '(^|[^A-Za-z0-9_/.-])(\./|pdr/)?((cmd|internal|scripts|examples)/[A-Za-z0-9_/.-]+|BENCH_[a-z]+\.json)' "$doc" |
		sed -E 's/^[^A-Za-z0-9_.]//; s/^(\.\/|pdr\/)//; s/[.\/]+$//' | sort -u); do
		# internal/pkg.Symbol names a declaration: trimmed to the package.
		if [ ! -e "$ref" ] && [ ! -e "${ref%%.[A-Z]*}" ]; then
			echo "$doc: $ref does not exist" >&2
			dangling=1
		fi
	done
done
[ "$dangling" = 0 ]
echo "ok"

step "doc sections resolve (a heading a doc, a Go file, a script or CI cites exists in the doc it names)"
# A citation is a doc's file name, an optional comma and a quoted heading,
# or DESIGN.md, a section sign and a section number. Comment markers are
# stripped and lines joined first, so a citation may wrap. The doc is named
# by its path from the module root, and a quoted heading must be a heading of
# it or the start of one. CHANGES.md, ROADMAP.md and bench/ cite history and
# are not checked.
unresolved=$(
	for src in README.md DESIGN.md EXPERIMENTS.md docs/*.md .claude/skills/verify/SKILL.md \
		$(find . \( -path ./bench -o -path ./.bench_build -o -path ./.git \) -prune -o -name '*.go' -print) \
		$(find scripts .github -type f); do
		text=$(sed -E 's/^[[:space:]]*(\/\/|#)+[[:space:]]?//' "$src" | tr '\n' ' ' | tr -s ' ')
		printf '%s\n' "$text" | grep -oE '([A-Za-z0-9_.-]+/)*[A-Z][A-Z_]*\.md,? "[^"]+"' |
			while IFS= read -r ref; do
				doc=${ref%%.md*}.md
				heading=${ref#*\"}
				heading=${heading%\"}
				if [ ! -f "$doc" ]; then
					echo "$src: $doc does not exist"
				elif ! grep -E '^#+ ' "$doc" | sed -E 's/^#+ +//' |
					awk -v h="$heading" 'index($0, h) == 1 { found = 1 } END { exit !found }'; then
					echo "$src: $doc has no heading \"$heading\""
				fi
			done
		printf '%s\n' "$text" | grep -oE 'DESIGN\.md ?§ ?[0-9]+' | grep -oE '[0-9]+$' |
			while IFS= read -r n; do
				grep -q "^## $n\. " DESIGN.md || echo "$src: DESIGN.md has no section $n"
			done
	done | sort -u
)
if [ -n "$unresolved" ]; then
	echo "$unresolved" >&2
	exit 1
fi
echo "ok"

echo ""
echo "all checks passed"
