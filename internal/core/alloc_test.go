package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// pageAllocBudget is the ceiling on heap allocations per page for
// visiting, recording and committing a page on the shipped path. Visit
// and record stood at ≈ 730 before scripts were decoded in place, a
// request's URL was parsed once and DOM attributes stopped being maps,
// at ≈ 445 after, and at ≈ 400 once sockets left TCP and net/http and
// the inclusion tree adopted the browser's parsed URLs. Until the ledger
// took each page's record as it is, it decoded a JSON line of it, which
// made the record's string copies: ≈ 419 a page (≈ 456 under -race,
// where sync.Pool drops items at random). Now the recorder copies the
// strings it takes from the trace once a page and the ledger folds and
// encodes the record: ≈ 414 (≈ 451 under -race); the budget keeps the
// race reading's headroom of 14.
const pageAllocBudget = 465

// matchesPerRequestBudget is the ceiling on filter-list evaluations per
// browser request on the same crawl. Every request is matched once
// (labeler.TagTree); what comes on top is one evaluation per script
// node that some chain walk reaches before an earlier ancestor has
// already answered "blocked" — not one per descendant of that script,
// which is where the figure stood (1.66) before verdicts were kept on
// the tree's nodes. The count is exact and repeats — 2 797 evaluations
// for 2 230 requests, 1.254 — and the budget is that count plus 5 %.
const matchesPerRequestBudget = 2797.0 / 2230 * 1.05

// tenSiteCost is what the fixed ten-site crawl cost, process-wide.
type tenSiteCost struct {
	pages                      int64
	mallocs, matches, requests uint64
}

// crawlTenSites crawls a fixed ten sites through the one shipped page
// path — dispatch.Run's grant loop over the plane's runGrant: visit,
// inclusion tree, labeling, record, the ledger's fold and encode; one
// worker — and counts heap allocations, filter-list
// evaluations and browser requests across it. World build, list parsing
// and server start are outside the counts.
func crawlTenSites(t *testing.T) tenSiteCost {
	t.Helper()
	if testing.Short() {
		t.Skip("crawls 150 pages")
	}
	opts := Options{
		Seed: 20170419, NumPublishers: 40, Workers: 1, PagesPerSite: 15,
		Dispatch: &DispatchOptions{StateDir: t.TempDir()},
	}
	plane, err := newPagePlane(opts, DefaultCrawls()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	plane.sites = plane.sites[:10]

	var before, after runtime.MemStats
	runtime.GC()
	matches, requests := obs.MatchRequests.Value(), obs.BrowserRequests.Value()
	runtime.ReadMemStats(&before)
	res, err := plane.crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.Stats.Pages < 100 {
		t.Fatalf("crawl loaded %d pages, want ten sites' worth", res.Stats.Pages)
	}
	return tenSiteCost{
		pages:    res.Stats.Pages,
		mallocs:  after.Mallocs - before.Mallocs,
		matches:  uint64(obs.MatchRequests.Value() - matches),
		requests: uint64(obs.BrowserRequests.Value() - requests),
	}
}

// TestPageAllocBudget holds the process-wide allocation count per page
// of the ten-site crawl to the budget.
func TestPageAllocBudget(t *testing.T) {
	c := crawlTenSites(t)
	perPage := float64(c.mallocs) / float64(c.pages)
	t.Logf("%d pages, %.0f allocs/page (budget %d)", c.pages, perPage, pageAllocBudget)
	if perPage > pageAllocBudget {
		t.Errorf("%.0f allocs/page, budget %d", perPage, pageAllocBudget)
	}
}

// TestMatchesPerRequest holds the ten-site crawl's filter-list
// evaluations per browser request to the budget, so a match per
// descendant — a chain walk that stops reading the nodes' verdicts —
// fails here and not in a profile.
func TestMatchesPerRequest(t *testing.T) {
	c := crawlTenSites(t)
	ratio := float64(c.matches) / float64(c.requests)
	t.Logf("%d pages, %d requests, %d filter-list evaluations: %.4f per request (budget %.4f)",
		c.pages, c.requests, c.matches, ratio, matchesPerRequestBudget)
	if ratio > matchesPerRequestBudget {
		t.Errorf("%.4f filter-list evaluations per request, budget %.4f", ratio, matchesPerRequestBudget)
	}
}
