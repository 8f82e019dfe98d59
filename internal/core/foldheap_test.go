package core

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/colstore"
)

// foldHeapLimit bounds the heap a crawl's fold keeps reachable against a
// fresh fold of the same pages' decoded spool lines. Every fold decodes
// what it folds, so nothing it keeps shares memory with a page body and
// the two retain the same. A fold that keeps the recorder's live records
// keeps the page bodies their socket strings alias: 1.44× at this size.
const foldHeapLimit = 1.05

// TestFoldHeapMatchesReplay crawls 40 publishers × 15 pages with one
// worker through RunCrawl and compares the heap the crawl's dataset —
// its store's finalized fold — keeps reachable with what the dataset of
// a fresh Folder keeps, each after forced collections. The fresh fold
// takes the records of the crawl's own sealed segments as the ledger
// takes every page: each encoded as a spool line and decoded again, so
// it holds its own copy of every string (a segment's records share the
// strings of its dictionaries, which would retain less).
func TestFoldHeapMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Seed: 20170419, NumPublishers: 40, Workers: 1, PagesPerSite: 15,
		Dispatch: &DispatchOptions{StateDir: dir},
	}
	spec := DefaultCrawls()[0]
	res, err := RunCrawl(context.Background(), opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	crawled := retained(&res.Dataset)

	segs, err := filepath.Glob(filepath.Join(opts.Dispatch.StorePath(spec), "seg-*.col"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("store segments: %v, %v", segs, err)
	}
	folder := analysis.NewFolder(FabricDatasetMeta(spec))
	for _, seg := range segs {
		recs, err := colstore.ReadSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			line, err := analysis.AppendSpoolRecord(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := analysis.DecodeSpoolLine(line[:len(line)-1])
			if err != nil {
				t.Fatal(err)
			}
			folder.Fold(decoded)
		}
	}
	replay, _ := folder.Finalize()
	folder = nil
	replayed := retained(&replay)

	ratio := float64(crawled) / float64(replayed)
	t.Logf("the crawl's fold keeps %d B reachable, a replay of its store %d B: %.3f× (limit %.2f×)",
		crawled, replayed, ratio, foldHeapLimit)
	if ratio > foldHeapLimit {
		t.Errorf("the crawl's fold keeps %.3f× the heap a replay of its store does (limit %.2f×)", ratio, foldHeapLimit)
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
