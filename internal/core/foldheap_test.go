package core

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/colstore"
)

// foldHeapLimit bounds the heap a crawl's fold keeps reachable against a
// fresh fold of self-contained copies of the same pages' records. The
// crawl folds the recorder's records as they are, and they own their
// strings (Recorder.RecordPage copies what it takes from the trace), so
// nothing it keeps shares memory with a page body and the two retain the
// same. A fold of records whose strings alias the trace keeps the page
// bodies behind them: 1.44× at this size.
const foldHeapLimit = 1.05

// TestFoldHeapMatchesReplay crawls 40 publishers × 15 pages with one
// worker through RunCrawl and compares the heap the crawl's dataset —
// its store's finalized fold — keeps reachable with what the dataset of
// a fresh Folder keeps, each after forced collections. The fresh fold
// takes the records of the crawl's own sealed segments, each as a
// self-contained copy (ownedCopy): the record a recorder makes, which
// shares its strings with nothing outside it. A segment's records as
// decoded share the strings of its dictionaries, which would retain
// less.
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
		recs, _, err := colstore.ReadSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			folder.Fold(ownedCopy(rec))
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

// ownedCopy is a deep copy of rec that owns its strings: each distinct
// string of the record copied once, as Recorder.RecordPage copies the
// strings it takes from a page's trace.
func ownedCopy(rec *analysis.PageRecord) *analysis.PageRecord {
	copies := map[string]string{}
	own := func(s string) string {
		c, ok := copies[s]
		if !ok {
			c = strings.Clone(s)
			copies[c] = c
		}
		return c
	}
	owns := func(v []string) []string {
		if v == nil {
			return nil
		}
		out := make([]string, len(v))
		for i, s := range v {
			out[i] = own(s)
		}
		return out
	}
	counts := func(cs []analysis.Count) []analysis.Count {
		if cs == nil {
			return nil
		}
		out := make([]analysis.Count, len(cs))
		for i, c := range cs {
			out[i] = analysis.Count{Key: own(c.Key), N: c.N}
		}
		return out
	}
	cp := &analysis.PageRecord{Site: own(rec.Site), Rank: rec.Rank, PageURL: own(rec.PageURL),
		AAObs: counts(rec.AAObs), NonAAObs: counts(rec.NonAAObs), CDNObs: counts(rec.CDNObs)}
	for _, ws := range rec.Sockets {
		ws.Site, ws.PageURL, ws.URL = own(ws.Site), own(ws.PageURL), own(ws.URL)
		ws.ReceiverDomain, ws.InitiatorDomain = own(ws.ReceiverDomain), own(ws.InitiatorDomain)
		ws.ChainDomains, ws.ChainURLs = owns(ws.ChainDomains), owns(ws.ChainURLs)
		ws.SentItems, ws.RecvClasses, ws.AdSamples = owns(ws.SentItems), owns(ws.RecvClasses), owns(ws.AdSamples)
		cp.Sockets = append(cp.Sockets, ws)
	}
	if rec.HTTP != nil {
		cp.HTTP = make([]analysis.PageTraffic, len(rec.HTTP))
		for i, t := range rec.HTTP {
			t.Domain, t.SentItems, t.RecvClasses = own(t.Domain), counts(t.SentItems), counts(t.RecvClasses)
			cp.HTTP[i] = t
		}
	}
	return cp
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
