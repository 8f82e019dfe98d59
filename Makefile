GO ?= go

FUZZTIME ?= 3s

.PHONY: all build vet test race fuzz-smoke chaos fabric-soak load-soak pkg-bench-smoke examples-smoke bench bench-smoke alloc-top workcounts loc lint fmt-check ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Dispatch's grant loops, the fabric's sessions and the crawler pool
# are heavily concurrent; the race detector is part of the standard
# gate. The second pass pins GOMAXPROCS above the worker counts used in
# tests so the scheduler actually interleaves grant loops, store
# ingests, stats observers, and query handlers sharing the engine's
# snapshot views on separate Ps.
race:
	$(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/dispatch/... ./internal/crawler/... ./internal/obs/... ./internal/fabric/... ./internal/colstore/...
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'Chaos' ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'TestFabricSoak' ./internal/fabric/
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'TestLoadSoak' ./internal/loadgen/

# Native fuzz targets, each for a short FUZZTIME (`go test -fuzz` takes
# one target per invocation); TestFuzzSmokeListsEveryTarget holds this
# list to every func Fuzz… in the tree. The differential targets hold
# the on-demand PRNG (New's and Make's) to math/rand, the appending
# payload synthesizer to the strings.Join form it replaced, the content scanners to the regexps
# they replaced, the filter-list parser + indexed matcher to the linear
# scan, the three hand JSON codecs — the script codec, the spool codec
# and the fabric frame codec, schema walkers over internal/jsonshape —
# to encoding/json (FuzzWireDecode also holds accepted frames to their
# own re-encoding), urlutil.Parse's fast
# path to net/url, the WebSocket handshake parsers (the first decoders
# that face another process's bytes) to net/http's and to their 64 KiB
# head cap, and the web server's in-process transports to its wire;
# FuzzReadMessage feeds the shipping frame reader (Conn.ReadMessage)
# hostile bytes on both sides of a connection — no panic, no message
# held past the conn's cap, every input ends in an error — and holds
# naiveWriteFrame's fragmented frames to a whole read-back, and
# FuzzConnWriteMatchesNaive holds the shipping frame writer
# (Conn.writeFrame) to naiveWriteFrame's bytes on both sides and reads
# each frame back;
# FuzzParse feeds htmlparse hostile bytes and holds its attributes to
# the map parser; FuzzParseArenaMatchesFresh parses them in sequence
# through one reset arena, each document serialized as a fresh parse.
# FuzzAppendLine: a worker's page line is refused with the store and
# its fold untouched, or folded and sealed as encoding/json decodes it.
# The two inputs a resume trusts, both in the store: FuzzLoadCheckpoint
# (a hostile store manifest is refused without touching a file unless
# it names this build's version and the crawl)
# and FuzzLedgerReplay (a resumed ledger over an arbitrary segment with
# outcome rows, or one past a gap, refuses without touching a file, or
# folds the segment's records and rebuilds a queue matching its rows).
# Those two cap input minimisation at 50 runs (-fuzzminimizetime 50x):
# every run opens a store and fsyncs, so an uncapped minimisation of
# each new input holds the fuzzer at 0 execs/s for most of a short run.
# The store's segment decoder, FuzzDecodeSegment: hostile bytes (also
# resealed with a valid checksum) are refused without a length taken on
# trust, and an accepted segment, outcome rows included, round-trips
# encode → decode → encode. The query
# service's indenter, FuzzIndentMatchesStdlib: jsonshape.Indent over
# any compacted valid value equals json.Indent(…, "", " "). Seed corpora
# are committed (f.Add and testdata/fuzz); inputs the fuzzer finds
# interesting stay in the Go build cache, and a failing input is
# written under the package's testdata/fuzz to be committed with the fix.
fuzz-smoke:
	$(GO) test ./internal/detrand -run '^$$' -fuzz '^FuzzSourceMatchesMathRand$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/payload -run '^$$' -fuzz '^FuzzAppendSynthesizeMatchesJoin$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/content -run '^$$' -fuzz '^FuzzAppendSentMatchesRegexp$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/content -run '^$$' -fuzz '^FuzzClassifyReceivedMatchesRegexp$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/content -run '^$$' -fuzz '^FuzzExtractAdRefsMatchesRegexp$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/htmlparse -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/htmlparse -run '^$$' -fuzz '^FuzzParseArenaMatchesFresh$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/filterlist -run '^$$' -fuzz '^FuzzMatchMatchesLinear$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/script -run '^$$' -fuzz '^FuzzProgramCodecMatchesJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analysis -run '^$$' -fuzz '^FuzzSpoolCodecMatchesJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/urlutil -run '^$$' -fuzz '^FuzzParseMatchesNetURL$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wsproto -run '^$$' -fuzz '^FuzzReadClientHandshake$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wsproto -run '^$$' -fuzz '^FuzzReadServerHandshake$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wsproto -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wsproto -run '^$$' -fuzz '^FuzzConnWriteMatchesNaive$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/webserver -run '^$$' -fuzz '^FuzzTransportsAgree$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fabric/wire -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dispatch -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dispatch -run '^$$' -fuzz '^FuzzLedgerReplay$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 50x
	$(GO) test ./internal/dispatch -run '^$$' -fuzz '^FuzzAppendLine$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 50x
	$(GO) test ./internal/colstore -run '^$$' -fuzz '^FuzzDecodeSegment$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/jsonshape -run '^$$' -fuzz '^FuzzIndentMatchesStdlib$$' -fuzztime $(FUZZTIME)

# Chaos soak (DESIGN.md §11, OPERATIONS.md "Chaos testing"): full-size
# crawls under every faultnet profile, asserting termination, settled
# accounting, no goroutine leaks, and the byte-identity guarantees of
# the fault-seed determinism contract. `ci` runs the -short variant via
# the race target; this target is the full soak.
chaos:
	$(GO) test -count=1 -run 'Chaos' -v ./internal/core/
	$(GO) test -count=1 ./internal/faultnet/ ./internal/wsproto/ ./internal/browser/

# Distributed-crawl soak (OPERATIONS.md "Distributed crawls"): the
# coordinator + worker fleet with hostile faultnet profiles on the
# worker end of each link, which faults both directions of it (timing
# distortion and mid-stream connection death), plus the kill/restart
# and real-process e2e determinism suites, full-size and race-checked.
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
# TestStoreIngestAllocs, TestCachedQueryAllocs, TestPageAllocBudget);
# speed is `make bench`'s.
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
# ledger's two callers (fabric coordinator, dispatch.Run), the
# columnar store every crawl writes, and the four-crawl study itself.
# Their digest gates fail unless the fabric dataset, the store-derived
# crawl 0 and the study's crawl 0 are each byte-identical to a second
# run on the plain dispatch path. The traced study and store_crawl runs
# execute bench's hand-built twin of the page path, the only caller of
# the benchpin.go shims, and its traced-vs-untraced digest gate holds
# that twin to the shipped path. The traced fabric run is the only run
# of bench's wire replay, which re-encodes and decodes every page frame
# of its crawl through wire.Encode and wire.Decode.
bench-smoke:
	$(GO) run ./bench --workload fabric --seconds 1 --trace 0
	$(GO) run ./bench --workload store_crawl --seconds 1 --trace 0
	$(GO) run ./bench --workload study --seconds 1 --trace 0
	$(GO) run ./bench --workload fabric --seconds 1 --trace 1
	$(GO) run ./bench --workload store_crawl --seconds 1 --trace 1
	$(GO) run ./bench --workload study --seconds 1 --trace 1

# Where a crawled page's bytes go: TestPageAllocBudget's ten-site crawl
# with every allocation profiled, and the 25 sites that allocate the most
# bytes. The test binary and the profile live in a temp dir that is
# removed on the way out.
alloc-top:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) test ./internal/core -run '^TestPageAllocBudget$$' -count=1 \
		-memprofilerate=1 -memprofile "$$dir/mem.out" -o "$$dir/core.test" -outputdir "$$dir" >/dev/null && \
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=25 "$$dir/core.test" "$$dir/mem.out"

# TestWorkCounts's baseline, rewritten from this tree: allocations,
# bytes and GC cycles per page of a fixed local and a fixed fabric crawl,
# their store's bytes, seals and directory syncs, and the fabric's wire
# bytes per page. Run it when a change moves a count on purpose, and
# commit the file, so the diff shows what moved.
workcounts:
	$(GO) test ./internal/core -run '^TestWorkCounts$$' -count=1 -update -v

# The size figure every change reports: non-test Go lines under
# internal/ and cmd/, the linter's testdata/ fixtures included, as the
# counts in CHANGES.md have always been taken.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

ci: fmt-check vet build lint test race fuzz-smoke pkg-bench-smoke examples-smoke bench-smoke

clean:
	$(GO) clean ./...
