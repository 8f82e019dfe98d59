package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/oracle"
	"repro/internal/colstore"
	"repro/internal/dispatch"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/webgen"
)

func storeDatasetBytes(t *testing.T, ds *analysis.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreDifferential runs the pinned bench-crawl world through both
// dataset paths — end-of-run spool merge vs streaming columnar store —
// and requires byte-identical datasets and byte-identical reports, from
// the live run and from a cold read-only open of the sealed segments;
// the query engine's Tables 1-5 are the report's sections.
func TestStoreDifferential(t *testing.T) {
	spec := CrawlSpec{Name: "bench", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}
	ctx := context.Background()

	mergeOpts := benchCrawlOptions(filepath.Join(t.TempDir(), "state"))
	mergeRes, err := RunCrawl(ctx, mergeOpts, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := storeDatasetBytes(t, mergeRes.Dataset)
	oracleTables := analysis.Report(mergeRes.Dataset)

	stateDir := filepath.Join(t.TempDir(), "state")
	storeOpts := benchCrawlOptions(stateDir)
	storeOpts.Store = true
	storeRes, err := RunCrawl(ctx, storeOpts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeDatasetBytes(t, storeRes.Dataset), want) {
		t.Error("store-derived dataset differs from merge-derived dataset")
	}
	if got := analysis.Report(storeRes.Dataset); got != oracleTables {
		t.Errorf("store-derived tables differ:\n--- store ---\n%s\n--- merge ---\n%s", got, oracleTables)
	}

	// RunCrawl closed the ledger (sealing the store); the on-disk segments
	// alone must reproduce the same dataset and tables for cmd/wsquery.
	ro, err := colstore.OpenRead(filepath.Join(stateDir, "store-crawl0"))
	if err != nil {
		t.Fatal(err)
	}
	roDS, _ := ro.Dataset()
	if !bytes.Equal(storeDatasetBytes(t, roDS), want) {
		t.Error("sealed on-disk store differs from merge-derived dataset")
	}
	if got := analysis.Report(roDS); got != oracleTables {
		t.Error("sealed on-disk store renders different tables")
	}
	engine := colstore.NewEngine(ro)
	for n := 1; n <= 5; n++ {
		sec, rows, ok := engine.Table(n)
		if !ok {
			t.Fatalf("query engine has no Table %d", n)
		}
		got := sec.Text(sec.Cut(rows, 0))
		if want := analysis.Lookup("table", fmt.Sprint(n)).Render(roDS); got != want {
			t.Errorf("query engine's Table %d differs from the report's:\n--- engine ---\n%s\n--- report ---\n%s", n, got, want)
		}
	}
}

// TestStoreSealsOncePerCommit gates the store's write cost at the
// study's size (150 publishers × 15 pages): a commit covers max(8, N/128)
// settled sites, fewer pages than SegmentPages, and seals them into one
// segment — so a store crawl writes one segment, and one publish's
// directory sync, per commit that had pages: every commit but at most
// the final one.
func TestStoreSealsOncePerCommit(t *testing.T) {
	stateDir := t.TempDir()
	opts := benchCrawlOptions(stateDir)
	opts.NumPublishers, opts.PagesPerSite, opts.Store = 150, 15, true
	spec := CrawlSpec{Name: "seals", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}
	before := obs.Default.Snapshot()
	if _, err := RunCrawl(context.Background(), opts, spec); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot()
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	seals, commits := delta(obs.MStoreSeals), delta(obs.MCheckpointWrites)
	if commits < 8 || seals < commits-1 || seals > commits {
		t.Errorf("%d seals over %d commits, want one per commit that had pages (%d or %d)", seals, commits, commits-1, commits)
	}
	// The manifest, every segment and every checkpoint: one sync each.
	if syncs := delta(obs.MStoreDirSyncs); syncs != 1+seals+commits {
		t.Errorf("%d directory syncs, want %d (manifest + %d seals + %d checkpoints)", syncs, 1+seals+commits, seals, commits)
	}
	segs, err := filepath.Glob(filepath.Join(stateDir, "store-crawl0", "seg-*.col"))
	if err != nil || int64(len(segs)) != seals {
		t.Errorf("%d segment files (%v), want the %d seals'", len(segs), err, seals)
	}
}

// TestStoreRequiresDispatch pins the Options contract: the store is
// queried after the crawl, so enabling it without a location to keep it
// in is a configuration error, not a store sealed into a temporary
// directory and removed.
func TestStoreRequiresDispatch(t *testing.T) {
	_, err := RunCrawl(context.Background(), Options{
		Seed: 1, NumPublishers: 2, Workers: 1, PagesPerSite: 1, Store: true,
	}, CrawlSpec{Name: "bad", Era: webgen.EraPrePatch, BrowserVersion: 57})
	if err == nil {
		t.Fatal("Store without Dispatch accepted")
	}
}

// TestResumeNeedsLocation: a resume reads the interrupted crawl's
// checkpoint, so a crawl naming no location cannot resume one.
func TestResumeNeedsLocation(t *testing.T) {
	_, err := RunCrawl(context.Background(), Options{
		Seed: 1, NumPublishers: 2, Workers: 1, PagesPerSite: 1,
		Dispatch: &DispatchOptions{Resume: true},
	}, CrawlSpec{Name: "bad", Era: webgen.EraPrePatch, BrowserVersion: 57})
	if err == nil {
		t.Fatal("Resume without a location accepted")
	}
}

// runFabricWorkers attaches n production workers to coord and waits for
// the crawl to drain and every worker to exit cleanly.
func runFabricWorkers(ctx context.Context, t *testing.T, coord *fabric.Coordinator, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunFabricWorker(ctx, FabricWorkerOptions{
				Name:    fmt.Sprintf("w%d", i),
				URL:     coord.URL(),
				Workers: 2,
				Seed:    int64(i + 1),
			})
		}(i)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator never drained: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}

// TestFabricStoreDifferential streams the pinned bench-crawl world
// through a coordinator with two real-pipeline workers and a store: the
// dataset Finalize derives from the store must match the merge of the
// coordinator's own spool (the retained oracle) byte for byte, live and
// after a cold read-only open of the sealed segments.
func TestFabricStoreDifferential(t *testing.T) {
	opts := Options{
		Seed:          benchCrawlSeed,
		NumPublishers: benchCrawlSites,
		Workers:       benchCrawlWorkers,
		PagesPerSite:  benchCrawlPages,
	}
	spec := CrawlSpec{Name: "bench", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}
	dir := t.TempDir()

	coord, err := StartFabricCoordinator(opts, spec, FabricCoordinatorOptions{
		Addr:           "127.0.0.1:0",
		BatchSize:      4,
		CheckpointPath: filepath.Join(dir, "checkpoint.json"),
		SpoolDir:       filepath.Join(dir, "spool"),
		StoreDir:       filepath.Join(dir, "store"),
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	runFabricWorkers(ctx, t, coord, 2)

	// Finalize commits the last checkpoint (flushing the spool, sealing
	// the store) and derives the dataset from the store.
	storeDS, storeStats, err := coord.Finalize(FabricDatasetMeta(spec))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := filepath.Glob(filepath.Join(dir, "spool", "shard-*.jsonl"))
	if err != nil || len(shards) != dispatch.DefaultShards {
		t.Fatalf("spool shards = %v (%v), want %d", shards, err, dispatch.DefaultShards)
	}
	mergeDS, mergeStats, err := oracle.MergeShards(FabricDatasetMeta(spec), shards)
	if err != nil {
		t.Fatal(err)
	}
	want := storeDatasetBytes(t, mergeDS)
	if !bytes.Equal(storeDatasetBytes(t, storeDS), want) {
		t.Error("fabric store dataset differs from the merge of the coordinator's spool")
	}
	if storeStats.Pages != mergeStats.Pages {
		t.Errorf("store folded %d pages, merge saw %d", storeStats.Pages, mergeStats.Pages)
	}
	if got, want := analysis.Report(storeDS), analysis.Report(mergeDS); got != want {
		t.Error("fabric store renders different tables than the merge")
	}
	liveDS, _ := coord.Store().Dataset()
	if !bytes.Equal(storeDatasetBytes(t, liveDS), want) {
		t.Error("the live store the query API serves differs from the merge")
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := colstore.OpenRead(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	roDS, _ := ro.Dataset()
	if !bytes.Equal(storeDatasetBytes(t, roDS), want) {
		t.Error("sealed fabric store differs from the merge of the coordinator's spool")
	}
}
