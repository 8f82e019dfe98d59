package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
)

// The store_read workload: the read side of the durable plane. Set-up
// crawls crawl 0 with Options.Store into one sealed store. Measured are
// cold opens (colstore.OpenRead then the first Dataset — what every
// wsquery start and every -resume pays) and a seeded query mix served by
// colstore.NewHandler to one in-process client, one request at a time.
// The page plane does nothing here.

// storeWorldSeed is the seed of the web the store is built from,
// whatever --seed says; --seed orders the query mix. What a query costs
// depends on what the store holds: across seeds 1..10 the crawl-0
// dataset has either 22-23 or 37-48 A&A domains and 180-320 sockets, and
// queries per second differ by 1.7x between the two groups. No bound
// could tell a regression from a change of seed, so the store's content
// is held fixed at the seed cmd/wsrepro defaults to.
const storeWorldSeed = 20170419

// queryMix is the served mix; kind groups queries for the per-kind
// layer metrics.
var queryMix = []struct{ kind, path string }{
	{"tables", "/tables?table=1"},
	{"tables", "/tables?table=2&top=15"},
	{"tables", "/tables?table=5"},
	{"chains", "/chains?aa=initiated&groupBy=initiator"},
	{"chains", "/chains?groupBy=pair&limit=50"},
	{"sites", "/sites?withSockets=true"},
	{"labels", "/labels?onlyAA=true"},
	{"storestats", "/storestats"},
}

// Floors under the time-boxed loops, so the reported percentiles always
// have ten samples beyond them.
const (
	minOpens   = 100
	minQueries = 1000
)

// bufferWriter is a reusable in-process http.ResponseWriter, so the
// client side of a query costs next to nothing.
type bufferWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *bufferWriter) Header() http.Header         { return w.header }
func (w *bufferWriter) WriteHeader(status int)      { w.status = status }
func (w *bufferWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *bufferWriter) reset() {
	clear(w.header)
	w.status = http.StatusOK
	w.body.Reset()
}

// get serves one GET through h and returns status and body; the body is
// valid until the next get on the same writer.
func get(h http.Handler, w *bufferWriter, req *http.Request) (int, []byte) {
	w.reset()
	h.ServeHTTP(w, req)
	return w.status, w.body.Bytes()
}

func newGet(path string) (*http.Request, error) {
	return http.NewRequest(http.MethodGet, "http://store.bench"+path, nil)
}

// builtStore is the set-up's product.
type builtStore struct {
	root    string // state dir to remove
	dir     string // the sealed store
	records int
	dataset []byte // the set-up crawl's dataset JSON
	seconds float64
}

// buildStore crawls crawl 0 of the storeWorldSeed web into a fresh
// sealed store.
func buildStore(ctx context.Context, cfg runConfig) (*builtStore, error) {
	cfg.Seed = storeWorldSeed
	root, err := stateDir(cfg.StateRoot, "store_read")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	spec := core.DefaultCrawls()[0]
	res, err := core.RunCrawl(ctx, crawlOptions(cfg, root, 2, true), spec)
	if err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	b := &builtStore{
		root:    root,
		dir:     filepath.Join(root, fmt.Sprintf("store-crawl%d", spec.CrawlIndex)),
		records: int(res.Stats.Pages),
		seconds: time.Since(start).Seconds(),
	}
	if b.dataset, err = datasetJSON(res.Dataset); err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	return b, nil
}

// openLoop times cold open -> first Dataset cycles for about seconds.
// With layers set it also counts each open's allocations and times the
// first query on a fresh handler (the engine's snapshot build).
func openLoop(b *builtStore, seconds float64, layers bool) (opens, snapshots []float64, segments int, mallocs uint64, err error) {
	req, err := newGet(queryMix[0].path)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	w := &bufferWriter{header: http.Header{}}
	runtime.GC()
	start := time.Now()
	for len(opens) < minOpens || time.Since(start).Seconds() < seconds {
		var p probe
		if layers {
			p = startProbe()
		}
		t := time.Now()
		st, err := colstore.OpenRead(b.dir)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		_, stats := st.Dataset()
		opens = append(opens, float64(time.Since(t).Nanoseconds())/1e6)
		if stats.Pages != b.records {
			return nil, nil, 0, 0, fmt.Errorf("cold open replayed %d records, the set-up crawl recorded %d", stats.Pages, b.records)
		}
		segments = st.Stats().Segments
		if layers {
			mallocs += p.stop().Mallocs
			h := colstore.NewHandler(st)
			t = time.Now()
			if status, _ := get(h, w, req); status != http.StatusOK {
				return nil, nil, 0, 0, fmt.Errorf("first query after open: status %d", status)
			}
			snapshots = append(snapshots, float64(time.Since(t).Nanoseconds())/1e6)
		}
	}
	return opens, snapshots, segments, mallocs, nil
}

// queryLoad is the outcome of one time-boxed query loop.
type queryLoad struct {
	cost      cost
	lat       []float64            // microseconds, in issue order
	byKind    map[string][]float64 // microseconds
	attempted int64
	failed    int64
}

// queryLoop serves the seeded mix from one client for about seconds:
// closed loop, one request in flight. Every response must be 200 and
// byte-equal to the first response to the same query. tr, when non-nil,
// records a span per query.
func queryLoop(h http.Handler, seed int64, seconds float64, tr *tracer) (*queryLoad, error) {
	reqs := make([]*http.Request, len(queryMix))
	for i, q := range queryMix {
		var err error
		if reqs[i], err = newGet(q.path); err != nil {
			return nil, err
		}
	}
	// The order of the mix is the workload's seeded input: eight copies
	// of every query, shuffled, cycled.
	var order []int
	for i := range queryMix {
		for k := 0; k < 8; k++ {
			order = append(order, i)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	w := &bufferWriter{header: http.Header{}}
	expected := make([][]byte, len(queryMix))
	for i := range queryMix { // warm-up: builds the snapshot, pins the expected bodies
		status, body := get(h, w, reqs[i])
		if status != http.StatusOK {
			return nil, fmt.Errorf("query %s: status %d: %s", queryMix[i].path, status, strings.TrimSpace(string(body)))
		}
		expected[i] = append([]byte(nil), body...)
	}
	load := &queryLoad{byKind: map[string][]float64{}}
	runtime.GC()
	p := startProbe()
	start := time.Now()
	for n := 0; n < minQueries || time.Since(start).Seconds() < seconds; n++ {
		i := order[n%len(order)]
		id := -1
		if tr != nil {
			id = tr.begin("colstore.query."+queryMix[i].kind, -1)
		}
		t := time.Now()
		status, body := get(h, w, reqs[i])
		us := float64(time.Since(t).Nanoseconds()) / 1e3
		if tr != nil {
			tr.end(id)
		}
		load.attempted++
		if status != http.StatusOK || !bytes.Equal(body, expected[i]) {
			load.failed++
		}
		load.lat = append(load.lat, us)
		load.byKind[queryMix[i].kind] = append(load.byKind[queryMix[i].kind], us)
	}
	load.cost = p.stop()
	return load, nil
}

func runStoreRead(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult()
	// Set-up, several times: each builds a complete sealed store. The
	// last one is the store the run reads.
	var setups []float64
	var store *builtStore
	for i := 0; i < 3; i++ {
		if store != nil {
			os.RemoveAll(store.root)
		}
		b, err := buildStore(ctx, cfg)
		if err != nil {
			return nil, err
		}
		store = b
		setups = append(setups, b.seconds)
	}
	defer os.RemoveAll(store.root)

	openShare, queryShare := 0.35, 0.65
	if cfg.Traced {
		openShare, queryShare = 0.3, 0.35 // the query loop runs twice: plain, then with spans
	}
	opens, snapshots, segments, openMallocs, err := openLoop(store, cfg.Seconds*openShare, cfg.Traced)
	if err != nil {
		return nil, err
	}
	st, err := colstore.OpenRead(store.dir)
	if err != nil {
		return nil, err
	}
	h := colstore.NewHandler(st)

	// /dataset must serve the set-up crawl's bytes.
	dsReq, err := newGet("/dataset")
	if err != nil {
		return nil, err
	}
	w := &bufferWriter{header: http.Header{}}
	status, body := get(h, w, dsReq)
	if status != http.StatusOK || !bytes.Equal(body, store.dataset) {
		return nil, fmt.Errorf("/dataset (status %d, sha256 %s) differs from the set-up crawl's dataset (sha256 %s)",
			status, sha256Hex(body), sha256Hex(store.dataset))
	}
	res.Digests["store"] = sha256Hex(store.dataset)

	load, err := queryLoop(h, cfg.Seed, cfg.Seconds*queryShare, nil)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = load.attempted, load.failed
	if load.failed > 0 {
		return nil, fmt.Errorf("%d of %d queries were not 200 with the expected body", load.failed, load.attempted)
	}
	openT, queryT := summarize(opens), summarize(load.lat)
	res.notef("store of %d records in %d segments; cold opens (ms): %s; queries (us): %s", store.records, segments, openT, queryT)
	res.notef("in-process handler calls, one client, closed loop; no sockets")

	if !cfg.Traced {
		res.set("setup_s", median(setups))
		res.set("ops_per_s", float64(load.attempted)/load.cost.Wall)
		res.set("cpu_us_per_op", load.cost.CPU*1e6/float64(load.attempted))
		res.set("peak_rss_mb", peakRSSMiB())
		return res, nil
	}

	tr := newTracer()
	root := tr.begin(spanRoot, -1)
	spanned, err := queryLoop(h, cfg.Seed, cfg.Seconds*queryShare, tr)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	res.Spans = tr.spans
	res.Attempted += spanned.attempted
	res.Failed += spanned.failed
	if spanned.failed > 0 {
		return nil, fmt.Errorf("%d of %d traced queries were not 200 with the expected body", spanned.failed, spanned.attempted)
	}

	for name, q := range map[string]float64{"open_ms_p50": 0.50, "open_ms_p90": 0.90} {
		v, err := openT.at(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.set(name, v)
	}
	for name, q := range map[string]float64{"query_us_p50": 0.50, "query_us_p99": 0.99} {
		v, err := queryT.at(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.set(name, v)
	}
	records := float64(store.records)
	res.set("colstore.open_us_per_record", openT.P50*1e3/records)
	res.set("colstore.segments_at_open", float64(segments))
	res.set("colstore.open_allocs_per_record", float64(openMallocs)/float64(len(opens))/records)
	res.set("colstore.snapshot_ms", median(snapshots))
	for kind, lat := range load.byKind {
		res.set("colstore.query_us."+kind, median(lat))
	}
	res.set("colstore.query_allocs", float64(load.cost.Mallocs)/float64(load.attempted))
	res.set("trace.overhead_ratio", (spanned.cost.Wall/float64(spanned.attempted))/(load.cost.Wall/float64(load.attempted)))
	return res, nil
}
