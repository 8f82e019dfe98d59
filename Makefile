GO ?= go

FUZZTIME ?= 3s

.PHONY: all build vet test race fuzz-smoke chaos fabric-soak load-soak pkg-bench-smoke examples-smoke bench bench-smoke lint fmt-check ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The dispatch orchestrator and crawler are heavily concurrent; the
# race detector is part of the standard gate. The second pass pins
# GOMAXPROCS above the worker counts used in tests so the scheduler
# actually interleaves dispatch workers, spool writers, and stats
# observers on separate Ps.
race:
	$(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/dispatch/... ./internal/crawler/... ./internal/obs/... ./internal/fabric/...
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'Chaos' ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'TestFabricSoak' ./internal/fabric/
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'TestLoadSoak' ./internal/loadgen/

# Native fuzz targets, each for a short FUZZTIME (`go test -fuzz` takes
# one target per invocation). The differential targets hold the
# on-demand PRNG to math/rand, the content scanners to the regexps they
# replaced, the filter-list parser + indexed matcher to the linear scan,
# the script codec to encoding/json, the WebSocket handshake parsers
# (the first decoders that face another process's bytes) to net/http's
# and to their 64 KiB head cap, the web server's in-process transports
# to its wire, and the fabric frame decoder to its own re-encoding
# (FuzzWireDecode: accepted frames round-trip); FuzzParse feeds htmlparse
# hostile bytes and holds its attributes to the map parser. Seed corpora
# are committed (f.Add and testdata/fuzz); inputs the fuzzer finds
# interesting stay in the Go build cache, and a failing input is
# written under the package's testdata/fuzz to be committed with the fix.
fuzz-smoke:
	$(GO) test ./internal/detrand -run '^$$' -fuzz '^FuzzSourceMatchesMathRand$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/content -run '^$$' -fuzz '^FuzzAppendSentMatchesRegexp$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/content -run '^$$' -fuzz '^FuzzClassifyReceivedMatchesRegexp$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/content -run '^$$' -fuzz '^FuzzExtractAdRefsMatchesRegexp$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/htmlparse -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/filterlist -run '^$$' -fuzz '^FuzzMatchMatchesLinear$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/script -run '^$$' -fuzz '^FuzzProgramCodecMatchesJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wsproto -run '^$$' -fuzz '^FuzzReadClientHandshake$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wsproto -run '^$$' -fuzz '^FuzzReadServerHandshake$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/webserver -run '^$$' -fuzz '^FuzzTransportsAgree$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fabric/wire -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME)

# Chaos soak (DESIGN.md §11, OPERATIONS.md "Chaos testing"): full-size
# crawls under every faultnet profile, asserting termination, settled
# accounting, no goroutine leaks, and the byte-identity guarantees of
# the fault-seed determinism contract. `ci` runs the -short variant via
# the race target; this target is the full soak.
chaos:
	$(GO) test -count=1 -run 'Chaos' -v ./internal/core/
	$(GO) test -count=1 ./internal/faultnet/ ./internal/wsproto/ ./internal/browser/

# Distributed-crawl soak (OPERATIONS.md "Distributed crawls"): the
# coordinator + worker fleet under hostile faultnet profiles (timing
# distortion and mid-stream connection death) plus the kill/restart and
# real-process e2e determinism suites, full-size and race-checked.
# `ci` runs the -short soak via the race target; this is the full soak.
fabric-soak:
	$(GO) test -race -count=1 -run 'TestFabricSoak|TestFabricSurvives' -v ./internal/fabric/
	$(GO) test -count=1 -run 'TestE2EDistributedCrawl' -v ./internal/fabric/

# Load-generator soak (OPERATIONS.md "Load testing & capacity"): the
# full wsload fleet against an in-process echo server under the slow
# and stall faultnet profiles, asserting complete echo accounting,
# zero verify errors, and a leak-free exit. `ci` runs the -short
# variant via the race target; this target is the full soak.
load-soak:
	$(GO) test -count=1 -run 'TestLoadSoak' -v ./internal/loadgen/

# Project-invariant analyzers (determinism, maporder, observeonly,
# spanclose, deadline, lockguard) over the module, type-checked from
# source. Exits non-zero on any unsuppressed finding; see DESIGN.md §9
# for the catalogue and the //lint:allow policy. Copied mutexes are
# vet's copylocks check. The run is timed so a type-check regression
# shows up in CI logs before it hurts.
lint:
	@start=$$(date +%s); \
	$(GO) run ./cmd/wslint ./... || exit $$?; \
	end=$$(date +%s); \
	echo "lint: clean in $$((end - start))s"

# Every package benchmark, one iteration each: proves the corpora still
# build and every benchmarked path still executes (the lint row also
# asserts the module is lint-clean). The numbers a benchmark must hold
# are assertions in the ordinary tests (TestHotOpsZeroAlloc,
# TestIndexedMatchZeroAlloc, TestPageFrameEncodeAllocs,
# TestSteadyStateZeroAlloc, TestWriteFrameZeroAlloc,
# TestStoreIngestAllocs, TestPageAllocBudget); speed is `make bench`'s.
pkg-bench-smoke:
	$(GO) test ./internal/... -run '^$$' -bench . -benchtime 1x

# Every program under examples/ builds, runs and exits 0. They are the
# only callers that assemble browsers, extensions and a server by hand,
# two of them over the server's wire transport.
examples-smoke:
	@for e in examples/*/; do echo "$(GO) run ./$$e"; $(GO) run ./$$e >/dev/null || exit 1; done

# The repository's one end-to-end benchmark (bench/README.md; contract
# in BENCHMARK.json): every workload, untraced then traced, each in a
# fresh process, with cross-process dataset digest gates.
bench:
	$(GO) run ./bench

# One-second fabric, store_crawl and study workloads for ci: the durable
# ledger's two callers (fabric coordinator, dispatch.Run) times its two
# sinks (live fold, columnar store), and the four-crawl study itself.
# Their digest gates fail unless the fabric dataset, the store-derived
# crawl 0 and the study's crawl 0 are each byte-identical to a second
# run on the plain dispatch path.
bench-smoke:
	$(GO) run ./bench --workload fabric --seconds 1 --trace 0
	$(GO) run ./bench --workload store_crawl --seconds 1 --trace 0
	$(GO) run ./bench --workload study --seconds 1 --trace 0

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

ci: fmt-check vet build lint test race fuzz-smoke pkg-bench-smoke examples-smoke bench-smoke

clean:
	$(GO) clean ./...
