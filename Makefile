# Build/test entry points. `make ci` is the tier-1 gate: vet + tests +
# the race detector (stress tests in internal/vfs and internal/core run
# concurrent walks against rename/chmod/Shrink under the detector, and
# internal/telemetry races recording against export).

GO ?= go

.PHONY: all help build check vet perfbench-build race audit ci stress bench bench-parallel bench-smoke memscale-smoke serve-smoke shard-smoke dcbench

all: ci

help:
	@echo "targets:"
	@echo "  ci             tier-1 gate: vet + perfbench-build + check + race (run before every push)"
	@echo "  check          go build + go test ./..."
	@echo "  vet            go vet ./..."
	@echo "  perfbench-build build + vet the perfbench module (it reads the library's stats fields)"
	@echo "  race           race-detector pass over the concurrent packages"
	@echo "  audit          invariant-auditor tests (concurrent + injected-bug) under -race"
	@echo "  stress         longer -race soak of the stress tests"
	@echo "  bench          root benchmarks (includes BenchmarkParallelWalk)"
	@echo "  bench-parallel lookup-scalability curve at 1/2/4/8 goroutines"
	@echo "  bench-smoke    gate every BENCH_*.json trajectory: cold/deep/serve/shard and app hit/neg exact, app opt/unmod ratios in a band, tracing tax <3% budget"
	@echo "  memscale-smoke alloc-regression gate: warm walks at 0 allocs/op (AllocsPerRun test + BenchmarkParallelWalk -benchmem)"
	@echo "  serve-smoke    boot dcserve on loopback: 9P client round trips + end-to-end trace stitching on /slow"
	@echo "  shard-smoke    sharded tier under -race: 4 in-process shards + 2-shard over-the-wire (route, rename storm, concurrent read-your-writes, audit clean) + pipelined dispatch"
	@echo "  dcbench        paper tables/figures + BENCH_parallel/micro/apps/cold/deep/serve/trace/mem/shard JSON files"

build:
	$(GO) build ./...

check: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# perfbench is its own module over the library (replace dircache => ../)
# and reads dircache.CacheStats fields: a library change that breaks its
# build fails here, not in the benchmark run. Its tests are not run, and
# the binary is discarded so nothing is left in the module's directory.
perfbench-build:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

race:
	$(GO) test -race ./internal/vfs/... ./internal/core/... ./internal/telemetry/...

# The invariant auditor under fire: the concurrent audit stress tests and
# the injected-bug detection test, all under the race detector.
audit:
	$(GO) test -run 'Audit|Invariant' -race ./...

# The tier-1 gate, folded into one target.
ci: vet perfbench-build check race audit serve-smoke shard-smoke bench-smoke memscale-smoke

# Longer soak of just the stress tests (several runs, full iteration count).
stress:
	$(GO) test -race -run 'Stress' -count=3 ./internal/vfs/... ./internal/core/...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The lookup-scalability curve: warm-path walks at 1/2/4/8 goroutines.
bench-parallel:
	$(GO) test -run '^$$' -bench BenchmarkParallelWalk -count 3 .

# Trajectory smoke: regenerate every gated BENCH_*.json trajectory at
# small scale and gate it against the committed file of the same name (table in
# cmd/dcbench). exact: every key of BENCH_cold/deep/serve/shard.json and
# the app/*/hit|neg rates of BENCH_apps.json must match bit for bit, zeros
# included, with no key on one side only. band: the app opt/unmod wall-time
# ratios may drift ±0.35 (rm -r ±0.15). budget: walk tracing at 1/64
# sampling must cost <3% on the warm fastpath (BENCH_trace.json). Every
# file is checked and every failing one is named; BENCH_micro/mem.json are
# records only. Regenerate the baselines with `make dcbench`.
bench-smoke:
	$(GO) run ./cmd/dcbench -scale small -smoke BENCH_apps.json

# Alloc-regression gate for the slab work: dentries, fast-dentries, and
# DLHT chain nodes live in slab arenas, so a warm fastpath walk must not
# allocate — testing.AllocsPerRun asserts exactly 0, and the parallel
# walk benchmark must report 0 allocs/op (awk gates the -benchmem column
# so a regression fails the target, not just prints a number).
memscale-smoke:
	$(GO) test -run 'TestWarmWalkZeroAlloc' -count=1 .
	$(GO) test -run '^$$' -bench 'BenchmarkParallelWalk/optimized/goroutines-1$$' -benchtime 2000x -benchmem . | \
		tee /dev/stderr | awk '/allocs\/op/ { if ($$(NF-1)+0 != 0) bad=1 } END { exit bad }'

# 9P server smoke: boot dcserve on an ephemeral loopback port, run the
# in-repo client through attach/walk/stat/readdir/read round trips under
# two principals, assert a clean drain on shutdown — and the tracing
# acceptance: a cold 14-component wire walk stitches into ONE
# client+server trace and a warm walk below a published ancestor records
# a shortcut resume (a seeded fastpath scan) with depth saved, both
# readable off /slow and /metrics.json.
serve-smoke:
	$(GO) test -run 'TestServeSmoke|TestServeTraceSmoke' -count=1 ./cmd/dcserve

# Sharded-tier smoke under the race detector: the whole internal/shard
# suite — ring placement properties, the 4-shard in-process tier
# (routing, rename storms, injected-bug detection, racing
# rename-vs-walk, concurrent read-your-writes sessions with no pump),
# and the 2-shard over-the-wire tier (peer invalidations over Tshoot) —
# plus the ninep pipelined-dispatch tests the wire leg rides on.
shard-smoke:
	$(GO) test -race -count=1 ./internal/shard/
	$(GO) test -race -run 'TestPipeline' -count=1 ./internal/ninep/

# Paper tables/figures plus the machine-readable perf trajectory files.
dcbench:
	$(GO) run ./cmd/dcbench -scale small -json BENCH_parallel.json fig2 fig6 fig8
