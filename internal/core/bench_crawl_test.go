package core

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
)

// The bench-crawl world: one pinned config, small enough to iterate in
// CI, big enough that every pipeline stage (fetch, parse, script, ws,
// tree, label, spool encode, merge) does real work.
const (
	benchCrawlSeed    = 20180411
	benchCrawlSites   = 24
	benchCrawlPages   = 6
	benchCrawlWorkers = 4
)

func benchCrawlOptions(stateDir string) Options {
	return Options{
		Seed:          benchCrawlSeed,
		NumPublishers: benchCrawlSites,
		Workers:       benchCrawlWorkers,
		PagesPerSite:  benchCrawlPages,
		Dispatch: &DispatchOptions{
			StateDir: stateDir,
		},
	}
}

// benchCrawl runs the full per-page path end-to-end — page loads,
// WebSocket sessions, inclusion trees, labeling, sharded spooling,
// merge — and reports pages/sec plus per-page cost metrics.
func benchCrawl(b *testing.B, reference bool) {
	spec := CrawlSpec{Name: "bench", Era: 0, CrawlIndex: 0, BrowserVersion: 57}
	ctx := context.Background()
	var pages int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := benchCrawlOptions(filepath.Join(b.TempDir(), "state"))
		res, err := crawlPlane(ctx, opts, spec, reference)
		if err != nil {
			b.Fatal(err)
		}
		pages += res.Stats.Pages
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if pages == 0 {
		b.Fatal("bench crawl loaded no pages")
	}
	elapsed := b.Elapsed()
	b.ReportMetric(float64(pages)/elapsed.Seconds()/float64(b.N)*float64(b.N), "pages/sec")
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(pages), "ns/page")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(pages), "B/page")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(pages), "allocs/page")
}

// BenchmarkCrawlPipeline is the shipping configuration: in-process
// fetch plane, scratch/pool reuse at every layer, group-committed
// spool, live folding.
func BenchmarkCrawlPipeline(b *testing.B) { benchCrawl(b, false) }

// BenchmarkCrawlPipelineReference is the retained seed path — the
// pre-optimization plane (newReferencePlane) the differential test
// compares against.
// The gap between the two is the PR's claimed win; if it collapses,
// an optimization has quietly stopped engaging.
func BenchmarkCrawlPipelineReference(b *testing.B) { benchCrawl(b, true) }
