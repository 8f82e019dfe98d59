package core

import (
	"context"
	"runtime"
	"runtime/debug"
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
// made the record's string copies: ≈ 419 a page. With the recorder
// copying the strings it takes from the trace once a page, it read ≈ 414
// (≈ 451 under -race). Since a page's DOM nodes and attribute lists,
// trace events and parsed URLs come from the browser's per-visit
// storage, which the next site's browser takes over (browser.Release),
// and the labeler's deltas from the recorder's scratch, it read 316.
//
// Since a page's bytes are made once it reads 114: the server plans a
// page once per resource and builds what it serves in pooled storage,
// its generators are values, the browser reads bodies where they lie,
// decodes programs into its visit scratch, sends from its visit byte
// buffer, and devtools IDs and the labeler's request list are no longer
// made per page. Reverted one at a time on a copy of the tree, the
// pieces read: served programs built in fresh memory 143, request IDs
// rendered per page 138, programs decoded into fresh memory 136,
// resources returned by pointer 132, generators that allocate 128, the
// sent bytes allocated per message 123, entities unescaped through a
// strings.Replacer 123, a body copied into a string 121, pages rendered
// by size estimate 120, the labeler's request list made per page 120 —
// each above the budget, which leaves 5 of headroom. (/js/app.js
// building the whole plan reads 116 and is
// TestServePageAllocBudget's to catch; placement drawn per page
// allocates nothing and costs only CPU.)
//
// Since a record is flat — its HTTP aggregates and labeler deltas
// sorted count lists in one allocation, where they were ≈ 25 maps a
// page — it reads 86–89 (113–115 before), and the budget keeps 5 of
// headroom over the top of that spread. TestWorkCounts holds the same
// path to its exact count; this budget is the outer bound.
//
// Under -race, sync.Pool drops a quarter of what is put, so the pooled
// visit storage, recorder scratch and server buffers are rebuilt at
// random: the reading spreads over ≈ 150–157 (≈ 165–171 with the maps),
// and raceAllocExtra covers it.
const (
	pageAllocBudget = 94
	raceAllocExtra  = 72
)

// pageBytesBudget is the ceiling on heap bytes allocated per page on the
// same crawl (MemStats.TotalAlloc). It was ≈ 50 KB before the per-visit
// storage, ≈ 32.1–32.8 KB after, and reads ≈ 19.6–20.3 KB since a
// page's bytes are made once — a ten-site crawl, so the first pages'
// growth of the pooled storage is in the figure: a long study reads
// ≈ 10.7 KB. Of the pieces above, the budget catches by bytes a body
// copied into a string (22.1 KB) and pages rendered by size estimate
// (22.9 KB). The flat record took it to ≈ 16.1–17.4 KB (19.2–19.7 KB
// with the maps). Under -race the rebuilt pooled storage spreads the
// reading over ≈ 45–56 KB.
const (
	pageBytesBudget = 18_500
	raceBytesExtra  = 56_000
)

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
	pages                             int64
	mallocs, bytes, matches, requests uint64
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
		bytes:    after.TotalAlloc - before.TotalAlloc,
		matches:  uint64(obs.MatchRequests.Value() - matches),
		requests: uint64(obs.BrowserRequests.Value() - requests),
	}
}

// TestPageAllocBudget holds the process-wide allocation count and bytes
// per page of the ten-site crawl to their budgets.
func TestPageAllocBudget(t *testing.T) {
	c := crawlTenSites(t)
	allocBudget, bytesBudget := pageAllocBudget, pageBytesBudget
	if raceEnabled() {
		allocBudget += raceAllocExtra
		bytesBudget += raceBytesExtra
	}
	perPage := float64(c.mallocs) / float64(c.pages)
	bytesPerPage := float64(c.bytes) / float64(c.pages)
	t.Logf("%d pages, %.0f allocs/page (budget %d), %.0f bytes/page (budget %d)",
		c.pages, perPage, allocBudget, bytesPerPage, bytesBudget)
	if perPage > float64(allocBudget) {
		t.Errorf("%.0f allocs/page, budget %d", perPage, allocBudget)
	}
	if bytesPerPage > float64(bytesBudget) {
		t.Errorf("%.0f bytes/page, budget %d", bytesPerPage, bytesBudget)
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

// raceEnabled reports whether the test binary runs under the race
// detector.
func raceEnabled() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}
