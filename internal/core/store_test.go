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
	"repro/internal/webgen"
)

// renderAllTables renders Tables 1-5 — the paper's full tabular
// evaluation — from one dataset.
func renderAllTables(ds *analysis.Dataset) string {
	var b bytes.Buffer
	b.WriteString(analysis.RenderTable1(analysis.Table1(ds)))
	b.WriteString(analysis.RenderTable2(analysis.Table2(10, ds)))
	b.WriteString(analysis.RenderTable3(analysis.Table3(10, ds)))
	b.WriteString(analysis.RenderTable4(analysis.Table4(10, ds)))
	b.WriteString(analysis.RenderTable5(analysis.Table5(ds)))
	return b.String()
}

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
// and requires byte-identical datasets and byte-identical rendered
// Table 1-5 output, from the live run and from a cold read-only open of
// the sealed segments.
func TestStoreDifferential(t *testing.T) {
	spec := CrawlSpec{Name: "bench", Era: webgen.EraPrePatch, CrawlIndex: 0, BrowserVersion: 57}
	ctx := context.Background()

	mergeOpts := benchCrawlOptions(filepath.Join(t.TempDir(), "state"))
	mergeRes, err := RunCrawl(ctx, mergeOpts, spec)
	if err != nil {
		t.Fatal(err)
	}
	oracle := storeDatasetBytes(t, mergeRes.Dataset)
	oracleTables := renderAllTables(mergeRes.Dataset)

	stateDir := filepath.Join(t.TempDir(), "state")
	storeOpts := benchCrawlOptions(stateDir)
	storeOpts.Store = true
	storeRes, err := RunCrawl(ctx, storeOpts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeDatasetBytes(t, storeRes.Dataset), oracle) {
		t.Error("store-derived dataset differs from merge-derived dataset")
	}
	if got := renderAllTables(storeRes.Dataset); got != oracleTables {
		t.Errorf("store-derived tables differ:\n--- store ---\n%s\n--- merge ---\n%s", got, oracleTables)
	}

	// RunCrawl closed the ledger (sealing the store); the on-disk segments
	// alone must reproduce the same dataset and tables for cmd/wsquery.
	ro, err := colstore.OpenRead(filepath.Join(stateDir, "store-crawl0"))
	if err != nil {
		t.Fatal(err)
	}
	roDS, _ := ro.Dataset()
	if !bytes.Equal(storeDatasetBytes(t, roDS), oracle) {
		t.Error("sealed on-disk store differs from merge-derived dataset")
	}
	if got := renderAllTables(roDS); got != oracleTables {
		t.Error("sealed on-disk store renders different tables")
	}
}

// TestStoreRequiresDispatch pins the Options contract: the store rides
// the dispatch path's checkpoint/seal boundary, so enabling it without
// Dispatch is a configuration error, not a silent fallback.
func TestStoreRequiresDispatch(t *testing.T) {
	_, err := RunCrawl(context.Background(), Options{
		Seed: 1, NumPublishers: 2, Workers: 1, PagesPerSite: 1, Store: true,
	}, CrawlSpec{Name: "bad", Era: webgen.EraPrePatch, BrowserVersion: 57})
	if err == nil {
		t.Fatal("Store without Dispatch accepted")
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
		NumShards:      4,
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
	if err != nil || len(shards) != 4 {
		t.Fatalf("spool shards = %v (%v), want 4", shards, err)
	}
	mergeDS, mergeStats, err := analysis.MergeShards(FabricDatasetMeta(spec), shards)
	if err != nil {
		t.Fatal(err)
	}
	oracle := storeDatasetBytes(t, mergeDS)
	if !bytes.Equal(storeDatasetBytes(t, storeDS), oracle) {
		t.Error("fabric store dataset differs from the merge of the coordinator's spool")
	}
	if storeStats.Pages != mergeStats.Pages {
		t.Errorf("store folded %d pages, merge saw %d", storeStats.Pages, mergeStats.Pages)
	}
	if got, want := renderAllTables(storeDS), renderAllTables(mergeDS); got != want {
		t.Error("fabric store renders different tables than the merge")
	}
	liveDS, _ := coord.Store().Dataset()
	if !bytes.Equal(storeDatasetBytes(t, liveDS), oracle) {
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
	if !bytes.Equal(storeDatasetBytes(t, roDS), oracle) {
		t.Error("sealed fabric store differs from the merge of the coordinator's spool")
	}
}
