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
	"repro/internal/colstore"
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

// storeDataset is the dataset a cold read-only open of the sealed store
// at dir derives: what cmd/wsquery serves.
func storeDataset(t *testing.T, dir string) *analysis.Dataset {
	t.Helper()
	ro, err := colstore.OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := ro.Dataset()
	return ds
}

// TestStoreDifferential runs the pinned bench-crawl world and holds its
// dataset and report to a cold read-only open of the store the crawl
// left behind, byte for byte; the query engine's Tables 1-5 are the
// report's sections.
func TestStoreDifferential(t *testing.T) {
	spec := CrawlSpec{Name: "bench", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}
	stateDir := filepath.Join(t.TempDir(), "state")
	res, err := RunCrawl(context.Background(), benchCrawlOptions(stateDir), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := storeDatasetBytes(t, res.Dataset)
	tables := analysis.Report(res.Dataset)

	// RunCrawl closed the ledger (sealing the store); the on-disk segments
	// alone must reproduce the same dataset and tables for cmd/wsquery.
	ro, err := colstore.OpenRead(filepath.Join(stateDir, "store-crawl0"))
	if err != nil {
		t.Fatal(err)
	}
	roDS, _ := ro.Dataset()
	if !bytes.Equal(storeDatasetBytes(t, roDS), want) {
		t.Error("sealed on-disk store differs from the crawl's dataset")
	}
	if got := analysis.Report(roDS); got != tables {
		t.Errorf("sealed on-disk store renders different tables:\n--- store ---\n%s\n--- crawl ---\n%s", got, tables)
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
	opts.NumPublishers, opts.PagesPerSite = 150, 15
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
// through a coordinator with two real-pipeline workers: the dataset
// Finalize derives from the coordinator's store — which, named by no
// StoreDir, is store-crawl0 beside the checkpoint, where a local crawl
// keeps it — must match a cold read-only open of that store byte for
// byte, as must the live store the query API serves.
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
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	runFabricWorkers(ctx, t, coord, 2)

	// Finalize commits the last checkpoint (sealing the store) and
	// derives the dataset from the store.
	storeDS, storeStats, err := coord.Finalize(FabricDatasetMeta(spec))
	if err != nil {
		t.Fatal(err)
	}
	got := storeDatasetBytes(t, storeDS)
	liveDS, liveStats := coord.Store().Dataset()
	if !bytes.Equal(storeDatasetBytes(t, liveDS), got) || liveStats.Pages != storeStats.Pages {
		t.Error("the live store the query API serves differs from the finalized dataset")
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	cold := storeDataset(t, filepath.Join(dir, "store-crawl0"))
	if !bytes.Equal(storeDatasetBytes(t, cold), got) {
		t.Error("sealed fabric store differs from the coordinator's dataset")
	}
	if analysis.Report(cold) != analysis.Report(storeDS) {
		t.Error("sealed fabric store renders different tables than the coordinator's dataset")
	}
}
