package analysis

import (
	"context"
	"hash/fnv"
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
// pooled Recorder once its scratch is warm: ≈ 37 on the test's pages,
// against ≈ 148 unpooled. A RecordPage that stopped returning its
// scratch to the pool rebuilds the arena builder, its maps and the walk
// buffers every page (≈ 79) and fails here; the whole-crawl
// TestPageAllocBudget in core has the headroom to miss that.
const pooledRecordBudget = 45

// TestRecorderPooledSteadyState records a fixed set of crawled pages
// again and again through one pooled Recorder and holds the per-page
// allocation count to pooledRecordBudget.
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

	type page struct {
		site crawler.Site
		url  string
		res  *browser.PageResult
	}
	var pages []page
	sites := make([]crawler.Site, 0, len(w.Publishers))
	for _, p := range w.Publishers {
		sites = append(sites, crawler.Site{Domain: p.Domain, Rank: p.Rank})
	}
	cfg := crawler.Config{
		PagesPerSite: 3, Seed: 5,
		SiteBrowser: func(site crawler.Site) *browser.Browser {
			return browser.New(browser.Config{
				Version: 57, Seed: crawler.SiteSeed(5, site.Domain),
				HTTPClient: s.Client(), ResolveWS: s.Resolver(),
			})
		},
		OnPage: func(site crawler.Site, pageURL string, res *browser.PageResult) {
			pages = append(pages, page{site, pageURL, res})
		},
	}
	var stats crawler.Stats
	for _, site := range sites {
		if _, err := crawler.CrawlSite(context.Background(), cfg.SiteBrowser(site), site, cfg, &stats); err != nil {
			t.Fatal(err)
		}
	}

	perPage := func(r *Recorder) float64 {
		record := func() {
			for _, p := range pages {
				if _, err := r.RecordPage(p.site, p.url, p.res); err != nil {
					t.Fatal(err)
				}
			}
		}
		record() // warm the scratch
		return testing.AllocsPerRun(5, record) / float64(len(pages))
	}
	pooled := perPage(&Recorder{Label: lab, Pooled: true})
	unpooled := perPage(&Recorder{Label: lab})
	t.Logf("%d pages: %.1f allocs/page pooled, %.1f unpooled (budget %d)", len(pages), pooled, unpooled, pooledRecordBudget)
	if pooled > pooledRecordBudget {
		t.Errorf("pooled RecordPage: %.1f allocs/page, budget %d", pooled, pooledRecordBudget)
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

// TestShardForIsFNV1a pins ShardFor, which picks the file every spool
// line and store segment record lands in, to hash/fnv's New64a mod n,
// and to literal values any change of hash or reduction would move.
func TestShardForIsFNV1a(t *testing.T) {
	for _, tc := range []struct {
		domain string
		n      int
		want   int
	}{
		{"a.com", 4, 3},
		{"alpha.com", 16, 4},
		{"site017.com", 7, 6},
		{"publisher-00042.example", 16, 4},
		{"33across.com", 4, 1},
		{"", 7, 2},
	} {
		h := fnv.New64a()
		h.Write([]byte(tc.domain))
		if ref := int(h.Sum64() % uint64(tc.n)); ref != tc.want {
			t.Fatalf("pin %q mod %d = %d, but hash/fnv gives %d", tc.domain, tc.n, tc.want, ref)
		}
		if got := ShardFor(tc.domain, tc.n); got != tc.want {
			t.Errorf("ShardFor(%q, %d) = %d, want %d", tc.domain, tc.n, got, tc.want)
		}
	}
}
