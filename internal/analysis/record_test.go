package analysis

import (
	"context"
	"runtime/debug"
	"testing"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/filterlist"
	"repro/internal/labeler"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// pooledRecordBudget is the ceiling on heap allocations per page for a
// Recorder once its scratch is warm: ≈ 47 on the test's pages, ≈ 10 of
// them the record's own copies of the strings it takes from the trace
// (≈ 37 before records owned them; the ledger's decode of a JSON line
// made those copies, at ≈ 18–39 a page). A RecordPage that stopped
// returning its scratch to the pool rebuilds the arena builder, its maps
// and the walk buffers every page (≈ 42 more) and fails here; the
// whole-crawl TestPageAllocBudget in core has the headroom to miss that.
const pooledRecordBudget = 55

// TestRecorderPooledSteadyState records a fixed set of crawled pages
// again and again through one Recorder and holds the per-page
// allocation count to pooledRecordBudget.
//
// A PageResult is valid only until its browser's next Visit, so each
// page is held from a browser of its own: a fresh browser with the
// site's seed replays the site's visits up to that page and visits
// nothing after it, which reproduces the page the crawl saw.
func TestRecorderPooledSteadyState(t *testing.T) {
	skipIfRace(t)
	w := webgen.NewWorld(webgen.Config{Seed: 31, NumPublishers: 6, Era: webgen.EraPrePatch})
	s, err := webserver.Start(w)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lab := labeler.New(
		filterlist.Parse("easylist", w.EasyListText()),
		filterlist.Parse("easyprivacy", w.EasyPrivacyText()),
	)
	lab.SetCDNMap(w.CloudfrontMap())

	newBrowser := func(site crawler.Site) *browser.Browser {
		return browser.New(browser.Config{
			Version: 57, Seed: crawler.SiteSeed(5, site.Domain),
			HTTPClient: s.Client(), ResolveWS: s.Resolver(),
		})
	}
	visited := map[string][]string{} // site → the page URLs its crawl visited, in order
	cfg := crawler.Config{
		PagesPerSite: 3, Seed: 5,
		OnPage: func(site crawler.Site, pageURL string, _ *browser.PageResult) {
			visited[site.Domain] = append(visited[site.Domain], pageURL)
		},
	}
	type page struct {
		site crawler.Site
		url  string
		res  *browser.PageResult
	}
	var pages []page
	var stats crawler.Stats
	for _, p := range w.Publishers {
		site := crawler.Site{Domain: p.Domain, Rank: p.Rank}
		if _, err := crawler.CrawlSite(context.Background(), newBrowser(site), site, cfg, &stats); err != nil {
			t.Fatal(err)
		}
		urls := visited[site.Domain]
		for i := range urls {
			b := newBrowser(site)
			var res *browser.PageResult
			for _, u := range urls[:i+1] {
				if res, err = b.Visit(context.Background(), u); err != nil {
					t.Fatal(err)
				}
			}
			pages = append(pages, page{site, urls[i], res})
		}
	}

	r := &Recorder{Label: lab}
	record := func() {
		for _, p := range pages {
			if _, err := r.RecordPage(p.site, p.url, p.res); err != nil {
				t.Fatal(err)
			}
		}
	}
	record() // warm the scratch
	perPage := testing.AllocsPerRun(5, record) / float64(len(pages))
	t.Logf("%d pages: %.1f allocs/page (budget %d)", len(pages), perPage, pooledRecordBudget)
	if perPage > pooledRecordBudget {
		t.Errorf("RecordPage: %.1f allocs/page, budget %d", perPage, pooledRecordBudget)
	}
}

// skipIfRace skips allocation tests of pooled paths under the race
// detector, where sync.Pool drops items at random.
func skipIfRace(t *testing.T) {
	t.Helper()
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops items at random under the race detector")
			}
		}
	}
}

// SkipIfRace is skipIfRace, for the allocation tests outside the
// package.
var SkipIfRace = skipIfRace
