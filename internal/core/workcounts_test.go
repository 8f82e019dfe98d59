package core

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fabric/wire"
	"repro/internal/obs"
)

// updateWorkCounts rewrites testdata/workcounts.json from this run
// (make workcounts).
var updateWorkCounts = flag.Bool("update", false, "rewrite testdata/workcounts.json with this run's work counts")

// workCountsFile is the committed baseline TestWorkCounts compares with.
const workCountsFile = "testdata/workcounts.json"

// workCountTolerance is how far a count may move from its baseline. A
// rise beyond up (a fraction of the baseline) plus slack (in the count's
// own unit) fails: the change costs more work. A fall beyond down plus
// slack fails too, until the baseline is regenerated, so every gain
// shows in the file's diff. Exact counts have all three at zero.
type workCountTolerance struct{ up, down, slack float64 }

var (
	// Heap allocations per page are counted with the collector off, so
	// no collection empties a pool mid-crawl, and on one P, so every
	// pool Get finds what the last Put left; reruns then agree to
	// ≈ 0.4 allocations a page. A 2 % rise would let one allocation a
	// page through (it is ≈ 1.2 % of the local crawl's), so the bound
	// is 0.5 %: under an allocation a page in either role.
	allocsTolerance = workCountTolerance{up: 0.005, down: 0.05}
	// Bytes allocated per page, counted the same way, agree to ≈ 0.3 %.
	bytesTolerance = workCountTolerance{up: 0.02, down: 0.05}
	// Bytes on disk, on the wire and the store's syscalls are exact: one
	// crawl worker fixes the page order, so each rerun writes the same
	// bytes in the same seals.
	exactTolerance = workCountTolerance{}
	// GC cycles are counted on a crawl of their own with the collector
	// on. The crawl makes 3–7 of them, and reruns spread over two
	// (fabric: 5–7; concurrent marking races the crawl's goroutines),
	// so the slack is gcSlackCycles cycles of the crawl, per 1 000
	// pages, and 10 % on top.
	gcTolerance = workCountTolerance{up: 0.10, down: 0.10}
)

const gcSlackCycles = 2

// workCount is one named count of a work-count crawl.
type workCount struct {
	name  string
	value float64
	tol   workCountTolerance
}

// workCrawl is one role's work-count crawl. It builds what the crawl
// needs, runs the crawl between h.start and h.stop, and returns the
// pages it loaded and the counts it read off its store and wire.
type workCrawl func(t *testing.T, h *heapCounter) (pages int64, counts []workCount)

// TestWorkCounts is the committed cost baseline: counts of the work a
// small fixed crawl does in each role, compared with
// testdata/workcounts.json. Walls move between hosts and sessions;
// these do not, so a change that costs a page an allocation, a byte on
// disk or a syscall fails here, and one that saves them fails too until
// `make workcounts` rewrites the file, so the gain shows in its diff.
// TestPageAllocBudget and TestStoreIngestAllocs stay as outer bounds.
func TestWorkCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls 669 pages four times")
	}
	if raceEnabled() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	var counts []workCount
	for _, role := range []struct {
		name  string
		crawl workCrawl
	}{{"local", localWorkCrawl}, {"fabric", fabricWorkCrawl}} {
		// The collector's pass runs first, and warms what a process
		// makes once (lazy tables, the first connections' buffers), so
		// the count pass reads the same whether it runs alone or after
		// the package's other tests.
		h := &heapCounter{}
		pages, _ := role.crawl(t, h)
		gc := workCount{role.name + ".gc_per_1000_pages", round1(1000 * float64(h.gcs) / float64(pages)), gcTolerance}
		gc.tol.slack = gcSlackCycles * 1000 / float64(pages)

		h = &heapCounter{collectorOff: true}
		pages, extra := role.crawl(t, h)
		p := float64(pages)
		counts = append(counts,
			workCount{role.name + ".pages", p, exactTolerance},
			workCount{role.name + ".allocs_per_page", round1(float64(h.mallocs) / p), allocsTolerance},
			workCount{role.name + ".bytes_per_page", math.Round(float64(h.bytes) / p), bytesTolerance})
		counts = append(counts, extra...)
		counts = append(counts, gc)
	}

	got := map[string]float64{}
	for _, c := range counts {
		got[c.name] = c.value
	}
	if *updateWorkCounts {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workCountsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", workCountsFile)
	}
	data, err := os.ReadFile(workCountsFile)
	if err != nil {
		t.Fatalf("%v (make workcounts writes it)", err)
	}
	var want map[string]float64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", workCountsFile, err)
	}
	for _, c := range counts {
		base, ok := want[c.name]
		if !ok {
			t.Errorf("%s = %.6g has no baseline in %s (make workcounts)", c.name, c.value, workCountsFile)
			continue
		}
		delete(want, c.name)
		t.Logf("%-32s %10.6g (baseline %.6g)", c.name, c.value, base)
		switch {
		case c.value > base*(1+c.tol.up)+c.tol.slack:
			t.Errorf("%s rose to %.6g from %.6g (%+.2f %%)", c.name, c.value, base, pct(c.value, base))
		case c.value < base*(1-c.tol.down)-c.tol.slack:
			t.Errorf("%s fell to %.6g from %.6g (%+.2f %%): regenerate the baseline with make workcounts", c.name, c.value, base, pct(c.value, base))
		}
	}
	for name := range want {
		t.Errorf("%s names %s, which this run does not count", workCountsFile, name)
	}
}

func pct(v, base float64) float64 { return 100 * (v - base) / base }

// workCountOptions is both roles' work-count crawl: crawl 0 of a
// 40-publisher world, 15 pages a site, one crawl worker.
func workCountOptions() Options {
	return Options{Seed: 20170419, NumPublishers: 40, Workers: 1, PagesPerSite: 15}
}

// heapCounter reads process-wide heap counts across one crawl.
type heapCounter struct {
	// collectorOff turns the garbage collector off and runs the crawl
	// on one P between start and stop.
	collectorOff bool

	running             bool
	procs, gcPercent    int // GOMAXPROCS and the GC percent before start
	before              runtime.MemStats
	mallocs, bytes, gcs uint64
}

func (h *heapCounter) start() {
	// Two collections empty every sync.Pool, so the crawl's pooled
	// storage starts cold whatever ran before it.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&h.before)
	h.running = true
	if h.collectorOff {
		h.gcPercent = debug.SetGCPercent(-1)
		h.procs = runtime.GOMAXPROCS(1)
	}
}

// stop reads the counts. Once stopped, it does nothing, so a crawl may
// defer it to restore the collector on a failure as well.
func (h *heapCounter) stop() {
	if !h.running {
		return
	}
	h.running = false
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if h.collectorOff {
		debug.SetGCPercent(h.gcPercent)
		runtime.GOMAXPROCS(h.procs)
	}
	h.mallocs = after.Mallocs - h.before.Mallocs
	h.bytes = after.TotalAlloc - h.before.TotalAlloc
	h.gcs = uint64(after.NumGC - h.before.NumGC)
}

// storeCounts names a sealed store's bytes per site and the seals and
// directory syncs a crawl made into it.
func storeCounts(t *testing.T, role, dir string, sites int, seals, dirSyncs int64) []workCount {
	t.Helper()
	_, segBytes := dirFiles(t, dir, ".col")
	manifest, err := os.Stat(filepath.Join(dir, "store.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := float64(sites)
	return []workCount{
		{role + ".segment_bytes_per_site", round1(float64(segBytes) / s), exactTolerance},
		{role + ".manifest_bytes_per_site", round1(float64(manifest.Size()) / s), exactTolerance},
		{role + ".store_seals", float64(seals), exactTolerance},
		{role + ".store_dir_syncs", float64(dirSyncs), exactTolerance},
	}
}

func round1(v float64) float64 { return math.Round(10*v) / 10 }

// localWorkCrawl crawls the fixed sites through the local path:
// dispatch.Run's grant loop over the page plane, the ledger's fold and
// the store.
func localWorkCrawl(t *testing.T, h *heapCounter) (int64, []workCount) {
	t.Helper()
	opts := workCountOptions()
	opts.Dispatch = &DispatchOptions{StoreDir: filepath.Join(t.TempDir(), "store")}
	plane, err := newPagePlane(opts, DefaultCrawls()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()

	seals, syncs := obs.StoreSeals.Value(), obs.StoreDirSyncs.Value()
	h.start()
	defer h.stop()
	res, err := plane.crawl(context.Background())
	h.stop()
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats.Pages, storeCounts(t, "local", opts.Dispatch.StoreDir, len(plane.sites),
		obs.StoreSeals.Value()-seals, obs.StoreDirSyncs.Value()-syncs)
}

// fabricWorkCrawl crawls the same sites through a coordinator and one
// production worker with one crawl worker, over loopback TCP in this
// process, and counts the bytes the worker sends the coordinator.
func fabricWorkCrawl(t *testing.T, h *heapCounter) (int64, []workCount) {
	t.Helper()
	opts := workCountOptions()
	spec := DefaultCrawls()[0]
	store := filepath.Join(t.TempDir(), "store")
	seals, syncs := obs.StoreSeals.Value(), obs.StoreDirSyncs.Value()
	coord, err := StartFabricCoordinator(opts, spec, FabricCoordinatorOptions{
		Addr: "127.0.0.1:0", BatchSize: 4, StoreDir: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	runner, err := NewFabricRunner(FabricCrawlConfig(opts, spec), 1)
	if err != nil {
		t.Fatal(err)
	}
	var sent atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	streamed := obs.FabricPagesStreamed.Value()
	h.start()
	defer h.stop()
	werr := make(chan error, 1)
	go func() {
		werr <- fabric.RunWorker(ctx, fabric.WorkerConfig{
			Name: "w0", URL: coord.URL(), Seed: 1,
			NewRunner: func(wire.CrawlConfig) (fabric.BatchRunner, error) { return runner, nil },
			WrapConn:  func(c net.Conn) net.Conn { return &sentCounter{Conn: c, n: &sent} },
		})
	}()
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator never drained: %v", err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}
	_, _, err = coord.Finalize(FabricDatasetMeta(spec))
	h.stop()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	pages := obs.FabricPagesStreamed.Value() - streamed
	wireBytes := workCount{"fabric.wire_bytes_per_page", round1(float64(sent.Load()) / float64(pages)), exactTolerance}
	return pages, append(storeCounts(t, "fabric", store, len(FabricSites(opts, spec)),
		obs.StoreSeals.Value()-seals, obs.StoreDirSyncs.Value()-syncs), wireBytes)
}

// sentCounter counts the bytes written to a connection.
type sentCounter struct {
	net.Conn
	n *atomic.Int64
}

func (c *sentCounter) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
