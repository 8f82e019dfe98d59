package core

import (
	"context"
	"runtime"
	"testing"
)

// pageAllocBudget is the ceiling on heap allocations per page for
// visiting and recording a page on the shipping plane. The path stood
// at ≈ 730 before scripts were decoded in place, a request's URL was
// parsed once and DOM attributes stopped being maps, and at ≈ 445
// after (≈ 485 under -race, where sync.Pool drops items at random). The
// headroom is about what any one of those cuts saved: undoing one shows
// in the logged figure, undoing two fails.
const pageAllocBudget = 560

// TestPageAllocBudget crawls a fixed ten sites in memory — visit,
// inclusion tree, labeling, record, fold; one worker, no disk — and
// holds the process-wide allocation count per page to the budget. World
// build, list parsing and server start are outside the count.
func TestPageAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls 150 pages")
	}
	opts := Options{Seed: 20170419, NumPublishers: 40, Workers: 1, PagesPerSite: 15}
	plane, err := newPagePlane(opts, DefaultCrawls()[0], false)
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	plane.sites = plane.sites[:10]

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := plane.crawlInMemory(context.Background())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pages < 100 {
		t.Fatalf("crawl loaded %d pages, want ten sites' worth", res.Stats.Pages)
	}
	perPage := float64(after.Mallocs-before.Mallocs) / float64(res.Stats.Pages)
	t.Logf("%d pages, %.0f allocs/page (budget %d)", res.Stats.Pages, perPage, pageAllocBudget)
	if perPage > pageAllocBudget {
		t.Errorf("%.0f allocs/page, budget %d", perPage, pageAllocBudget)
	}
}
