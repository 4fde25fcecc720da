# Developer entry points. CI runs the same steps (see .github/workflows).

GO ?= go

.PHONY: build test race bench bench-compare perf-guard experiments fmt vet lint lint-findings e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Reproducible perf artifact: rows/sec and messages-per-update for the
# headline protocols, at quick scale by default. Override the scale with
# BENCH_FLAGS (e.g. BENCH_FLAGS="" for the paper-scale streams).
BENCH_FLAGS ?= -quick
bench:
	$(GO) run ./cmd/experiments $(BENCH_FLAGS) -bench-json BENCH_ingest.json
	@cat BENCH_ingest.json

# benchstat-style old-vs-new comparison: regenerate into a scratch file and
# diff it against the committed artifact, promoting the new numbers only
# when the comparison passes — a -fail-over failure leaves the committed
# baseline untouched (and BENCH_ingest.new.json behind for inspection).
# COMPARE_FLAGS="-fail-over 20" makes a >20% rows/sec regression fail.
COMPARE_FLAGS ?=
bench-compare:
	$(GO) run ./cmd/experiments $(BENCH_FLAGS) -bench-json BENCH_ingest.new.json
	$(GO) run ./cmd/benchcompare $(COMPARE_FLAGS) BENCH_ingest.json BENCH_ingest.new.json
	@mv BENCH_ingest.new.json BENCH_ingest.json

# The in-tree perf floors: the ≥5× fast-ingest speedup guard, the exact-mode
# batch never-slower guard, the FD blocked-ingest guard, the steady-state
# zero-allocation assertions, the ≥2× sharded scaling floor at 4 workers,
# the shared-ingestion-pool never-slower floor (pool at 4 workers ≥
# 0.5× a 16-lane pool), and the HTTP rows decode floor (single-pass
# decoder ≥ 1.5× encoding/json on a 500×44 body, allocations flat in the
# row count). The scaling guards need ≥4 procs and skip — loudly — on
# smaller machines. CI runs exactly this target.
perf-guard:
	$(GO) test -run 'TestFastIngestSpeedupGuard|TestBatchDispatchNeverSlower|TestFastSiteHotPathAllocs|TestFastSiteSteadyStateAllocs|TestBlockedFDSpeedupGuard|TestShardedSpeedupGuard|TestShardedItemSpeedupGuard|TestPoolNoSlowerGuard|TestRowsDecodeGuard' -v -count=1 ./internal/core ./internal/node ./internal/sketch ./internal/hh ./internal/service

# Multi-node end-to-end smoke: distsite streams into distserve over the
# wire protocol on loopback, the coordinator is kill -9'd and restarted
# mid-stream, and the final query must match the site's oracle replay bit
# for bit. CI runs exactly this target.
e2e:
	scripts/e2e_smoke.sh

# Full figure/table regeneration (minutes).
experiments:
	$(GO) run ./cmd/experiments

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Pinned external linters. CI installs exactly these versions; locally the
# steps are skipped (with a notice) when the binaries are absent, so `make
# lint` never needs network access.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# The required lint gate, run by CI on every push: formatting, go vet, the
# project's own distlint analyzers (hot-path allocations, mutex guards,
# snapshot purity, error contracts, worker lifecycles — see
# internal/analysis), and the pinned external linters when installed.
# distlint type-checks against the build cache, so build first.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/distlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed; skipping (CI pins $(GOVULNCHECK_VERSION))"; fi

# Survey mode: print every distlint finding as clickable file:line:col
# lines without failing, for working through a newly annotated package.
lint-findings:
	$(GO) build ./...
	$(GO) run ./cmd/distlint -exit-zero ./...
