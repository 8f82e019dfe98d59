package core

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/oracle"
)

// foldHeapLimit bounds the heap a crawl's fold keeps reachable against a
// fresh fold of the same spool. Every fold decodes what it folds, so
// nothing it keeps shares memory with a page body and the two retain
// the same. A fold that keeps the recorder's live records keeps the page
// bodies their socket strings alias: 1.44× at this size.
const foldHeapLimit = 1.05

// TestFoldHeapMatchesReplay crawls 40 publishers × 15 pages with one
// worker through RunCrawl, without and with the store, and compares the
// heap the crawl's dataset — its ledger's (or store's) finalized fold —
// keeps reachable with what the dataset of a fresh Folder replayed from
// the crawl's own spool keeps, each after forced collections.
func TestFoldHeapMatchesReplay(t *testing.T) {
	for _, store := range []bool{false, true} {
		dir := t.TempDir()
		opts := Options{
			Seed: 20170419, NumPublishers: 40, Workers: 1, PagesPerSite: 15,
			Store: store, Dispatch: &DispatchOptions{StateDir: dir},
		}
		spec := DefaultCrawls()[0]
		res, err := RunCrawl(context.Background(), opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		crawled := retained(&res.Dataset)

		paths, err := filepath.Glob(filepath.Join(opts.Dispatch.spoolDir(spec), "shard-*.jsonl"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("spool shards: %v, %v", paths, err)
		}
		replay, _, err := oracle.MergeShards(FabricDatasetMeta(spec), paths)
		if err != nil {
			t.Fatal(err)
		}
		replayed := retained(&replay)

		ratio := float64(crawled) / float64(replayed)
		t.Logf("store=%v: the crawl's fold keeps %d B reachable, a replay of its spool %d B: %.3f× (limit %.2f×)",
			store, crawled, replayed, ratio, foldHeapLimit)
		if ratio > foldHeapLimit {
			t.Errorf("store=%v: the crawl's fold keeps %.3f× the heap a replay of its spool does (limit %.2f×)", store, ratio, foldHeapLimit)
		}
	}
}

// retained is the heap only *ds keeps reachable: the in-use heap after
// forced collections with it, less the heap after one without it.
func retained(ds **analysis.Dataset) int64 {
	with := heapAfterGC()
	runtime.KeepAlive(*ds)
	*ds = nil
	return int64(with) - int64(heapAfterGC())
}

// heapAfterGC collects until the pools' victim caches are empty too, and
// reads the in-use heap.
func heapAfterGC() uint64 {
	var m runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
