# Standard gate for this repository. `make check` is what CI (and every
# PR) must keep green: vet, formatting, and the full test suite under
# the race detector.

GO ?= go

.PHONY: check lint vet fmtcheck test test-race build fmt bench-smoke trace-overhead slo-smoke loadtest-baseline bench-index bench-index-record fuzz-smoke replica-smoke fleet-obs-smoke federation-smoke perf-publish stress

check: lint test-race bench-smoke trace-overhead bench-index slo-smoke replica-smoke fleet-obs-smoke federation-smoke

# Static hygiene in one target: formatting and go vet.
lint: fmtcheck vet

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

fmt:
	gofmt -w .

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash without paying for a full measurement run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Closed-loop SLO gate: self-serve the engine, replay the default
# traffic mix (with generation churn) for a short smoke window, and
# compare against the committed baseline with noise-tolerant
# thresholds. Fails on tail-latency, error-rate, allocation, or
# error-budget regressions. Re-record with `make loadtest-baseline`
# after an intentional performance change.
slo-smoke:
	$(GO) run ./cmd/pdcu loadtest -duration 2s -qps 200 -churn 700ms -gate BENCH_loadtest.json

loadtest-baseline:
	$(GO) run ./cmd/pdcu loadtest -duration 2s -qps 200 -churn 700ms -baseline BENCH_loadtest.json

# Search/index benchmark gate: re-measure the gated suite (cold query
# serve, search, suggest, filtered activities, facet counts) and compare
# against the newest record in the committed BENCH_search.json
# trajectory with noise-tolerant thresholds. A failure names the
# violated metric ("SearchCold:allocs_per_op"). Re-record after an
# intentional performance change with `make bench-index-record`, which
# appends a build-stamped record (or refines the current engine's
# newest one) instead of overwriting the history.
bench-index:
	$(GO) test -run=TestSearchBenchGate -count=1 -v .

bench-index-record:
	PDCU_BENCH_SEARCH_RECORD=1 $(GO) test -run=TestSearchBenchGate -count=1 -v .

# Flake hunt: the packages with timers, watchers, replication and live
# servers, twenty times over in shuffled order under the race detector.
# A test that fails here once in twenty fails tier-1 runs too. Slow, so
# not part of check.
STRESS_PKGS = ./internal/watch ./internal/engine ./internal/replica \
	./internal/loadgen ./internal/obs/fleet ./cmd/pdcu

stress:
	$(GO) test -race -shuffle=on -count=20 $(STRESS_PKGS)

# Short native-fuzzing burst over the tokenizer and the query paths:
# catches panics and broken invariants on adversarial input without a
# long campaign. Corpus findings land in testdata/fuzz and become
# regression seeds.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzTokenize -fuzztime=10s ./internal/search
	$(GO) test -run='^$$' -fuzz=FuzzSearch -fuzztime=10s ./internal/search
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/replica

# Replication smoke under the race detector: an in-process leader plus
# two followers (one chained off the other) converge through a mid-test
# corpus edit and serve byte-identical, generation-tagged responses,
# with neither follower parsing Markdown or building an index.
replica-smoke:
	$(GO) test -race -run 'TestReplicaSmoke|TestColdStartFromSnapshotDir' -count=1 -v ./cmd/pdcu

# Fleet observability smoke under the race detector: a leader and a
# follower wired the way cmdServe wires them must produce a stitched
# cross-node trace (follower fetch + leader snapshot serve under one
# trace ID), a federated /metrics/fleet with both node labels, /readyz
# replication extras, and a downloadable pprof capture from an induced
# SLO breach. The rollup-across-Adopt test rides along: generation
# swaps must not clamp counter windows as resets.
fleet-obs-smoke:
	$(GO) test -race -run 'TestFleetObsSmoke|TestRollupWindowsSpanAdopt' -count=1 -v ./cmd/pdcu

# Multi-corpus federation smoke under the race detector: a leader
# federating two catalogs must serve the ?source= query dimension and
# per-source facet counts, round-trip the contribution-validation
# endpoint (accepted and needs-work), and replicate the federated
# PDCUSNP2 snapshot to a follower that validates submissions without a
# single local index build.
federation-smoke:
	$(GO) test -race -run TestFederationSmoke -count=1 -v ./cmd/pdcu

# Tracing cost ceiling: with sampling off, the traced cached
# /api/v1/search path must stay within 5% of the untraced one
# (BenchmarkTraceOverhead measures it; this test enforces it). Runs
# without -race — the gate skips itself under the race detector.
trace-overhead:
	$(GO) test -run=TestTraceOverheadBudget -count=1 -v .

# Where a publish's milliseconds go: one traced 5-second run of the
# repository benchmark's publish workload (edit, leader rebuild, snapshot
# encode, decode, replica adopt), printed as a per-layer table. The
# layers after publish_ms add up to it. A tool for performance work, not
# part of check: timings stay out of the gates.
PERF_PUBLISH_ROWS = publish_ms load_ms site_build_ms index_build_ms swap_ms \
	snapshot_encode_ms snapshot_decode_ms adopt_ms snapshot_bytes \
	site_jobs_rendered site_jobs_cached publishes

perf-publish:
	@out=$$(bash perfbench/run.sh --workload publish --seed 1 --seconds 5 --trace 1) || exit 1; \
	echo "$$out" | tail -n 1 | grep -o '"[a-z_]*":{"value":[^,]*,"unit":"[a-z]*"' | \
	sed 's/"\([a-z_]*\)":{"value":\([^,]*\),"unit":"\([a-z]*\)"/\1 \2 \3/' | \
	awk -v rows="$(PERF_PUBLISH_ROWS)" '{ v[$$1] = $$2; u[$$1] = $$3 } \
		END { n = split(rows, r, " "); for (i = 1; i <= n; i++) \
			printf (u[r[i]] == "ms" ? "%-20s %12.3f %s\n" : "%-20s %12d %s\n"), r[i], v[r[i]], u[r[i]] }'
