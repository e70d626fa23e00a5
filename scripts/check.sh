#!/bin/sh
# check.sh — the repo's full verification gate: formatting, vet, build,
# tests, a run of every example, race detection on the concurrent packages, a fuzz smoke pass over
# the geometry invariants and the decoders, allocs/op pins on the kernels, the
# project-specific pdrvet analyzers, and a dangling-path check on the docs.
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
for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -count=10 ./internal/service
done

step "go test -race (engine: writers vs readers on the one engine lock, the slot-parallel surface, kernel scratch pools, result cache)"
go test -race ./internal/core ./internal/pa ./internal/cheb ./internal/dh ./internal/sweep ./internal/parallel ./internal/storage ./internal/cache

step "answer equivalence (FR == brute force == the per-cell pipeline, the surface == the per-record feed, the golden answers, the golden HTTP transcript)"
go test -run 'TestDifferentialStream|TestFRMatchesPerCellPipeline|TestSurfaceMatchesPerRecordFeed|TestGoldenAnswers|TestGoldenTranscript' -count=1 ./internal/core ./internal/service

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

step "hotpath benchmark smoke (-benchtime=1x: kernels compile, run, report allocs)"
go test -run '^$' -bench 'BenchmarkSeriesEval|BenchmarkAddBoxDelta|BenchmarkBoxFactors|BenchmarkFilter$|BenchmarkDenseRects200|BenchmarkDenseRegion$|BenchmarkSnapshot|BenchmarkIntervalPA$|BenchmarkDecodeUpdates' \
	-benchtime=1x -benchmem ./internal/cheb ./internal/dh ./internal/sweep ./internal/pa ./internal/core ./internal/wire >/dev/null
# pin_allocs 'Name=N ...' reads `go test -bench -benchmem` output and fails
# when a named benchmark is missing or allocates more than its pin.
pin_allocs() {
	awk -v pins="$1" '
		BEGIN { n = split(pins, p, " "); for (i = 1; i <= n; i++) { split(p[i], kv, "="); pin[kv[1]] = kv[2] } }
		$1 ~ /^Benchmark/ {
			name = $1; sub(/-[0-9]+$/, "", name)
			if (name in pin) {
				seen++
				if ($(NF-1) + 0 > pin[name] + 0) { print name ": " $(NF-1) " allocs/op, pinned at " pin[name]; bad = 1 }
			}
		}
		END { if (seen != n) { print "expected " n " pinned benchmarks, saw " seen + 0; bad = 1 }; exit bad }'
}
# The sweep's steady state allocates its output region and nothing else: the
# append growth of a 200-point window's answer is 11 allocations, a 20-cell
# run's 15 — whether the run's points are copied and sorted or, as the engine
# passes them, swept in place — and a clustered run's 10. One more means
# scratch stopped being reused.
go test -run '^$' -bench 'BenchmarkDenseRects200$|BenchmarkDenseRectsRow$' -benchtime=200x -benchmem ./internal/sweep |
	pin_allocs 'BenchmarkDenseRects200=11 BenchmarkDenseRectsRow/copy=15 BenchmarkDenseRectsRow/sorted=15 BenchmarkDenseRectsRow/clustered=10'
# An exact answer's final union, split in two, runs on pooled scratch: its two
# allocations are the closures that hand out the key ranges.
go test -run '^$' -bench 'BenchmarkCoalesceSplit$' -benchtime=200x -benchmem ./internal/geom |
	pin_allocs 'BenchmarkCoalesceSplit=2'
# A region difference both ways between two ~8k-rectangle lattices allocates
# its cutter grids, its piece buffers and its answers: a few dozen slices,
# where the quadratic loop it replaced made 165 million.
go test -run '^$' -bench 'BenchmarkSubtract$' -benchtime=20x -benchmem ./internal/geom |
	pin_allocs 'BenchmarkSubtract=68'
# A surface batch (1,000 updates x 91 timestamp slots) allocates nothing: the
# Lemma-4 factor scratch is owned per slot.
go test -run '^$' -bench 'BenchmarkSurfaceBatch$' -benchtime=5x -benchmem ./internal/pa |
	pin_allocs 'BenchmarkSurfaceBatch=0'
# The PA branch-and-bound walk reads each box's interval products from the
# surface's table and emits into a pooled buffer: it allocates the answer and
# nothing per box.
go test -run '^$' -bench 'BenchmarkDenseRegion$' -benchtime=200x -benchmem ./internal/pa |
	pin_allocs 'BenchmarkDenseRegion=1'
# Chebyshev evaluation, the Lemma-4 box delta, a box's bounds (Bounds on
# pooled scratch, BoundsOf on the caller's products), the walk's four-box
# kernels (four children's bounds, four floor centres) and the DH filter (its
# result released, as the engine does) allocate nothing.
go test -run '^$' -bench 'BenchmarkSeriesEval$|BenchmarkAddBoxDelta$|BenchmarkBounds$|BenchmarkBoundsOf$|BenchmarkBoundsOf4$|BenchmarkEvalRows4$|BenchmarkFilter$' -benchtime=200x -benchmem ./internal/cheb ./internal/dh |
	pin_allocs 'BenchmarkSeriesEval=0 BenchmarkAddBoxDelta=0 BenchmarkBounds=0 BenchmarkBoundsOf=0 BenchmarkBoundsOf4=0 BenchmarkEvalRows4=0 BenchmarkFilter=0'
# A query reply — an exact one of ~8k rectangles, ~840 KB, random (fr) or the
# engine's own (fr-engine), and a PA one of ~2,600 lattice boxes — is
# appended into a pooled buffer that is already grown: the encoder builds no
# intermediate value.
go test -run '^$' -bench 'BenchmarkEncodeQueryReply$' -benchtime=200x -benchmem ./internal/service |
	pin_allocs 'BenchmarkEncodeQueryReply/fr=0 BenchmarkEncodeQueryReply/fr-engine=0 BenchmarkEncodeQueryReply/pa=0'
# A traced PA snapshot through ServeHTTP (every request traced and stored, the
# default; no slow-query log) allocates its answer, its span tree and record,
# one attribute list per annotated span (integers stay integers until a trace
# is rendered), and the mux's and metrics' per-request share.
go test -run '^$' -bench 'BenchmarkTracedQuery$' -benchtime=200x -benchmem ./internal/service |
	pin_allocs 'BenchmarkTracedQuery=33'
# A cache hit on a 10,000-rect answer, alone or from every CPU at once,
# allocates nothing: it returns the stored entry itself, which every holder
# only reads.
go test -run '^$' -bench 'BenchmarkCacheDoHit' -benchtime=200x -benchmem ./internal/cache |
	pin_allocs 'BenchmarkCacheDoHit=0 BenchmarkCacheDoHitParallel=0'
# A tick's body (1,030 records) is scanned off the request's bytes into one
# exactly-sized update slice: no per-record or per-number allocation.
go test -run '^$' -bench 'BenchmarkDecodeUpdates$' -benchtime=200x -benchmem ./internal/wire |
	pin_allocs 'BenchmarkDecodeUpdates=1'
# A re-report the index rewrites in its leaf (most of a road-network stream's)
# allocates nothing; the few deleted and re-inserted average out below one.
go test -run '^$' -bench 'BenchmarkTreeUpdate$' -benchtime=2000x -benchmem ./internal/tprtree |
	pin_allocs 'BenchmarkTreeUpdate=0'
# A /v1/apply-shaped write (an insert and a delete, one ApplyBatch) runs its
# items inline and allocates nothing but the structures' amortized growth;
# handing them to the worker pool reads 9.
go test -run '^$' -bench 'BenchmarkServerApply$' -benchtime=2000x -benchmem ./internal/core |
	pin_allocs 'BenchmarkServerApply=0'
echo "ok"

step "pdrvet (project-specific static analysis)"
go run ./cmd/pdrvet ./...

step "analyzer inventory matches docs/LINT.md"
listed=$(go run ./cmd/pdrvet -list | awk '{print $1}' | sort)
documented=$(grep -E '^### ' docs/LINT.md | sed -E 's/^### ([a-z]+) .*/\1/' | sort)
if [ "$listed" != "$documented" ]; then
	echo "analyzer inventory drift between 'pdrvet -list' and docs/LINT.md:" >&2
	echo "pdrvet -list: $(echo $listed)" >&2
	echo "docs/LINT.md: $(echo $documented)" >&2
	exit 1
fi
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

echo ""
echo "all checks passed"
