package webserver

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/script"
	"repro/internal/urlutil"
	"repro/internal/webgen"
)

// Budgets for the server half of a page: every resource a page loads
// that the server renders — its HTML, its /js/app.js, each company's
// w.js and each ad-slot frame — fetched through Server.Fetch. Before a
// page's bytes were made once it read ≈ 106 allocations and ≈ 8.4 KB a
// page. It reads ≈ 12.1–12.7 and ≈ 2.7–3.0 KB now, nearly all of it the
// bodies themselves, which a fetch returns fresh. Reverted one at a
// time on a copy of the tree, the server's pieces read: served programs
// built in fresh memory 41.9 and 5.0 KB, generators that allocate 26.0,
// pages rendered in fresh memory by size estimate 18.3 and 6.2 KB,
// resources returned by pointer 18.1, /js/app.js building the whole
// plan 14.4 — each above a budget. (Placement drawn per page allocates
// nothing and costs only CPU.)
const (
	servePageAllocBudget = 14
	servePageBytesBudget = 3_300
)

// TestServePageAllocBudget holds the server's allocations and bytes per
// page, over a fixed set of pages, to their budgets.
func TestServePageAllocBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("under -race sync.Pool drops what is put at random: the pooled buffers would be counted")
	}
	w := webgen.NewWorld(webgen.Config{Seed: 20170419, NumPublishers: 40, Era: webgen.EraPrePatch})
	s, err := Start(w)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// What each page loads from the server, parsed outside the counts.
	var urls []*urlutil.URL
	add := func(raw string) {
		urls = append(urls, parseURL(t, raw))
	}
	pages := 0
	for _, pub := range w.Publishers[:10] {
		for page := 0; page < 5; page++ {
			pages++
			if page == 0 {
				add("http://" + pub.Domain + "/")
			} else {
				add(fmt.Sprintf("http://%s/page/%d", pub.Domain, page))
			}
			add(fmt.Sprintf("http://%s/js/app.js?pg=%d", pub.Domain, page))
			plan := w.PlanFor(pub, page)
			for _, u := range plan.DirectURLs {
				add(u)
			}
			for _, op := range plan.AppProgram.Ops {
				if op.Do == script.OpIncludeScript {
					add(op.URL)
				}
			}
			for _, u := range plan.IframeURLs {
				add(u)
			}
		}
	}
	fetchAll := func() {
		for _, u := range urls {
			if status, _, _, _ := s.Fetch(u, nil); status != 200 {
				t.Fatalf("%s: status %d", u, status)
			}
		}
	}
	fetchAll() // the pools' first buffers
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fetchAll()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(pages)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(pages)
	t.Logf("%d pages, %d resources: %.1f allocs/page (budget %d), %.0f bytes/page (budget %d)",
		pages, len(urls), allocs, servePageAllocBudget, bytes, servePageBytesBudget)
	if allocs > servePageAllocBudget {
		t.Errorf("%.1f allocs/page, budget %d", allocs, servePageAllocBudget)
	}
	if bytes > servePageBytesBudget {
		t.Errorf("%.0f bytes/page, budget %d", bytes, servePageBytesBudget)
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

// parseURL is urlutil.Parse for a test's URL literals: a malformed one
// fails the test.
func parseURL(tb testing.TB, raw string) *urlutil.URL {
	tb.Helper()
	u, err := urlutil.Parse(raw)
	if err != nil {
		tb.Fatal(err)
	}
	return u
}
