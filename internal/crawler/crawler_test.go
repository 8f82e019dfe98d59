package crawler

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

func testEnv(t *testing.T) (*webgen.World, *webserver.Server) {
	t.Helper()
	w := webgen.NewWorld(webgen.Config{Seed: 31, NumPublishers: 30, Era: webgen.EraPrePatch})
	s, err := webserver.Start(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return w, s
}

// siteBrowser is the Config.SiteBrowser every entry point uses: a fresh
// browser per site, seeded from (seed, site) alone.
func siteBrowser(s *webserver.Server, seed int64) func(Site) *browser.Browser {
	return func(site Site) *browser.Browser {
		return browser.New(browser.Config{
			Version: 57, Seed: SiteSeed(seed, site.Domain),
			HTTPClient: s.Client(), ResolveWS: s.Resolver(),
		})
	}
}

// crawlList runs the worker pool over a fixed site list.
func crawlList(ctx context.Context, sites []Site, cfg Config) (Stats, error) {
	var stats Stats
	_, err := Crawl(ctx, sites, cfg, &stats)
	return stats, err
}

func TestCrawlRespectsPageBudget(t *testing.T) {
	w, s := testEnv(t)
	var mu sync.Mutex
	pagesBySite := map[string]int{}
	sites := []Site{
		{Domain: w.Publishers[0].Domain, Rank: w.Publishers[0].Rank},
		{Domain: w.Publishers[1].Domain, Rank: w.Publishers[1].Rank},
	}
	cfg := Config{
		Workers:      2,
		PagesPerSite: 5,
		Seed:         7,
		SiteBrowser:  siteBrowser(s, 7),
		OnPage: func(site Site, pageURL string, res *browser.PageResult) {
			mu.Lock()
			pagesBySite[site.Domain]++
			mu.Unlock()
		},
	}
	stats, err := crawlList(context.Background(), sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sites != 2 {
		t.Errorf("sites = %d", stats.Sites)
	}
	for dom, n := range pagesBySite {
		if n > 5 {
			t.Errorf("%s: %d pages, budget 5", dom, n)
		}
		if n < 1 {
			t.Errorf("%s: no pages", dom)
		}
	}
	if stats.Pages != int64(pagesBySite[sites[0].Domain]+pagesBySite[sites[1].Domain]) {
		t.Error("page count mismatch")
	}
}

func TestCrawlVisitsHomepageFirst(t *testing.T) {
	w, s := testEnv(t)
	var mu sync.Mutex
	var order []string
	site := Site{Domain: w.Publishers[0].Domain, Rank: 1}
	cfg := Config{
		Workers: 1, PagesPerSite: 3, Seed: 7,
		SiteBrowser: siteBrowser(s, 1),
		OnPage: func(_ Site, pageURL string, _ *browser.PageResult) {
			mu.Lock()
			order = append(order, pageURL)
			mu.Unlock()
		},
	}
	if _, err := crawlList(context.Background(), []Site{site}, cfg); err != nil {
		t.Fatal(err)
	}
	if len(order) == 0 || order[0] != "http://"+site.Domain+"/" {
		t.Errorf("order = %v", order)
	}
}

func TestCrawlDeterministicLinkSampling(t *testing.T) {
	w, s := testEnv(t)
	run := func() []string {
		var mu sync.Mutex
		var pages []string
		cfg := Config{
			Workers: 1, PagesPerSite: 6, Seed: 99,
			SiteBrowser: siteBrowser(s, 5),
			OnPage: func(_ Site, pageURL string, _ *browser.PageResult) {
				mu.Lock()
				pages = append(pages, pageURL)
				mu.Unlock()
			},
		}
		site := Site{Domain: w.Publishers[2].Domain, Rank: 3}
		if _, err := crawlList(context.Background(), []Site{site}, cfg); err != nil {
			t.Fatal(err)
		}
		return pages
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("page %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestCrawlCancellation(t *testing.T) {
	w, s := testEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	sites := make([]Site, 0, len(w.Publishers))
	for _, p := range w.Publishers {
		sites = append(sites, Site{Domain: p.Domain, Rank: p.Rank})
	}
	cfg := Config{
		Workers: 2, PagesPerSite: 15, Seed: 1,
		SiteBrowser: siteBrowser(s, 2),
		OnPage: func(Site, string, *browser.PageResult) {
			once.Do(cancel) // cancel after the first page
		},
	}
	start := time.Now()
	_, err := crawlList(ctx, sites, cfg)
	if err == nil {
		t.Error("cancelled crawl returned nil error")
	}
	if time.Since(start) > 30*time.Second {
		t.Error("cancellation did not stop the crawl promptly")
	}
}

func TestCrawlSitePanicRecovery(t *testing.T) {
	w, s := testEnv(t)
	bad := w.Publishers[1].Domain
	sites := []Site{
		{Domain: w.Publishers[0].Domain, Rank: 1},
		{Domain: bad, Rank: 2},
		{Domain: w.Publishers[2].Domain, Rank: 3},
	}
	var mu sync.Mutex
	crawled := map[string]int{}
	var siteErrs []error
	cfg := Config{
		Workers: 1, PagesPerSite: 3, Seed: 7,
		SiteBrowser: func(site Site) *browser.Browser {
			if site.Domain == bad {
				// nil HTTPClient: the first fetch panics.
				return browser.New(browser.Config{Version: 57, Seed: 1})
			}
			return browser.New(browser.Config{
				Version: 57, Seed: SiteSeed(7, site.Domain),
				HTTPClient: s.Client(), ResolveWS: s.Resolver(),
			})
		},
		OnPage: func(site Site, _ string, _ *browser.PageResult) {
			mu.Lock()
			crawled[site.Domain]++
			mu.Unlock()
		},
	}
	var stats Stats
	for _, site := range sites {
		b := cfg.SiteBrowser(site)
		_, err := CrawlSite(context.Background(), b, site, cfg, &stats)
		if err != nil {
			siteErrs = append(siteErrs, err)
		}
	}
	if stats.SitePanics != 1 {
		t.Errorf("SitePanics = %d, want 1", stats.SitePanics)
	}
	if stats.SiteErrors != 1 {
		t.Errorf("SiteErrors = %d, want 1", stats.SiteErrors)
	}
	if len(siteErrs) != 1 {
		t.Fatalf("site errors = %v", siteErrs)
	}
	var pe *PanicError
	if !errors.As(siteErrs[0], &pe) || pe.Site != bad {
		t.Errorf("err = %v, want PanicError for %s", siteErrs[0], bad)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	// The broken site must not take down its neighbours.
	if crawled[sites[0].Domain] == 0 || crawled[sites[2].Domain] == 0 {
		t.Errorf("good sites not crawled: %v", crawled)
	}
	if crawled[bad] != 0 {
		t.Errorf("panicked site produced pages: %v", crawled)
	}
}

func TestCrawlPanicDoesNotKillCrawl(t *testing.T) {
	w, s := testEnv(t)
	bad := w.Publishers[1].Domain
	sites := []Site{
		{Domain: w.Publishers[0].Domain, Rank: 1},
		{Domain: bad, Rank: 2},
		{Domain: w.Publishers[2].Domain, Rank: 3},
	}
	cfg := Config{
		Workers: 2, PagesPerSite: 2, Seed: 7,
		SiteBrowser: func(site Site) *browser.Browser {
			if site.Domain == bad {
				return browser.New(browser.Config{Version: 57, Seed: 1})
			}
			return browser.New(browser.Config{
				Version: 57, Seed: SiteSeed(7, site.Domain),
				HTTPClient: s.Client(), ResolveWS: s.Resolver(),
			})
		},
	}
	stats, err := crawlList(context.Background(), sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SitePanics != 1 {
		t.Errorf("SitePanics = %d, want 1", stats.SitePanics)
	}
	if stats.Sites != 2 {
		t.Errorf("Sites = %d, want 2 (panicked site never reached the network)", stats.Sites)
	}
}

func TestCrawlCancellationStatsConsistent(t *testing.T) {
	w, s := testEnv(t)
	sites := make([]Site, 0, len(w.Publishers))
	for _, p := range w.Publishers {
		sites = append(sites, Site{Domain: p.Domain, Rank: p.Rank})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var recorded int64
	recordedSites := map[string]bool{}
	cfg := Config{
		Workers: 3, PagesPerSite: 10, Seed: 1,
		SiteBrowser: func(site Site) *browser.Browser {
			return browser.New(browser.Config{
				Version: 57, Seed: SiteSeed(1, site.Domain),
				HTTPClient: s.Client(), ResolveWS: s.Resolver(),
			})
		},
		OnPage: func(site Site, _ string, _ *browser.PageResult) {
			mu.Lock()
			recorded++
			recordedSites[site.Domain] = true
			if recorded == 12 {
				cancel()
			}
			mu.Unlock()
		},
	}
	stats, err := crawlList(ctx, sites, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every counted page was delivered to OnPage and vice versa: the
	// stats never include torn or dropped pages.
	if stats.Pages != recorded {
		t.Errorf("stats.Pages = %d, OnPage calls = %d", stats.Pages, recorded)
	}
	if stats.Sites < int64(len(recordedSites)) {
		t.Errorf("stats.Sites = %d < %d sites seen by OnPage", stats.Sites, len(recordedSites))
	}
	if stats.PageErrors != 0 {
		t.Errorf("PageErrors = %d after cancellation, want 0", stats.PageErrors)
	}
}

func TestCrawlRequiresBrowserFactory(t *testing.T) {
	if _, err := crawlList(context.Background(), nil, Config{}); err == nil {
		t.Error("missing SiteBrowser accepted")
	}
}

func TestCrawlCountsErrors(t *testing.T) {
	_, s := testEnv(t)
	cfg := Config{
		Workers: 1, PagesPerSite: 3, Seed: 1,
		SiteBrowser: siteBrowser(s, 3),
	}
	// A site outside the world: its homepage fetch 502s, and its attempt
	// is reported failed.
	var stats Stats
	failed, err := Crawl(context.Background(), []Site{{Domain: "no-such-site.example", Rank: 1}}, cfg, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PageErrors == 0 {
		t.Error("error not counted for unknown site")
	}
	if _, ok := failed["no-such-site.example"]; !ok || len(failed) != 1 {
		t.Errorf("failed sites = %v, want the unknown site", failed)
	}
}

// TestSiteKeysPinned pins (seed, domain) → SiteSeed and the first two
// draws of the link-sampling stream to the values hash/fnv +
// fmt.Fprintf gave before the keys were hashed in place: every site's
// browser seed and every crawl's link order hang off them.
func TestSiteKeysPinned(t *testing.T) {
	for _, c := range []struct {
		seed     int64
		domain   string
		siteSeed int64
		int63    int64
		intn1000 int
	}{
		{20170419, "espn.com", -43286028627670525, 5018943871576860041, 568},
		{20170419, "pub0001.com", -8222764731731772379, 2871892385046985958, 114},
		{7, "pub0042.co.uk", -7786412009194282024, 3438911767852201359, 837},
		{-3, "slither.io", 2009580676005257023, 2550066040996497578, 506},
		{0, "", 5821076792242668586, 970616075319410954, 109},
		{1 << 40, "a.example", -4548537821963357806, 1410244391329320594, 954},
	} {
		if got := SiteSeed(c.seed, c.domain); got != c.siteSeed {
			t.Errorf("SiteSeed(%d, %q) = %d, want %d", c.seed, c.domain, got, c.siteSeed)
		}
		r := siteRand(c.seed, c.domain)
		if a, b := r.Int63(), r.Intn(1000); a != c.int63 || b != c.intn1000 {
			t.Errorf("siteRand(%d, %q) draws %d, %d; want %d, %d", c.seed, c.domain, a, b, c.int63, c.intn1000)
		}
	}
}
