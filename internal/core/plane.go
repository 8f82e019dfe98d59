package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/fabric/wire"
	"repro/internal/faultnet"
	"repro/internal/filterlist"
	"repro/internal/labeler"
	"repro/internal/obs"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// pagePlane is the one page pipeline behind both crawl entry points —
// RunCrawl and the fabric worker's FabricRunner, which both crawl a
// grant with runGrant. It owns the served synthetic world, the rule
// lists and labeler behind the recorder, and the site roster, and it is
// the only place a browser is configured and a page becomes a record.
// Because both entry points crawl through the same plane with per-site
// seeded browsers and hand the ledger the same records, the same crawl
// config yields a byte-identical dataset whichever one ran it
// (TestEntryPointsAgree).
type pagePlane struct {
	cfg       wire.CrawlConfig
	workers   int
	server    *webserver.Server
	recorder  *analysis.Recorder
	sites     []crawler.Site
	fault     faultnet.Profile
	faultSeed int64
	// newBrowser, when set, builds each site's browser from the
	// configuration browserFor assembles in place of browser.New. Only
	// the tests' reference plane sets it.
	newBrowser func(browser.Config) *browser.Browser
}

// newWorld generates the synthetic web a crawl config describes, in
// era.
func newWorld(c wire.CrawlConfig, era webgen.Era) *webgen.World {
	return webgen.NewWorld(webgen.Config{
		Seed:          c.Seed,
		NumPublishers: c.NumPublishers,
		Era:           era,
		CrawlIndex:    c.CrawlIndex,
	})
}

// siteRoster lists a world's publishers as crawl targets, in rank order.
func siteRoster(world *webgen.World) []crawler.Site {
	sites := make([]crawler.Site, 0, len(world.Publishers))
	for _, p := range world.Publishers {
		sites = append(sites, crawler.Site{Domain: p.Domain, Rank: p.Rank})
	}
	return sites
}

// faultProfile resolves a faultnet profile name; the empty name is the
// disabled profile.
func faultProfile(name string) (faultnet.Profile, error) {
	if name == "" {
		return faultnet.Profile{}, nil
	}
	p, ok := faultnet.ByName(name)
	if !ok {
		return faultnet.Profile{}, fmt.Errorf("core: unknown fault profile %q (have: %s)",
			name, strings.Join(faultnet.Names(), ", "))
	}
	return p, nil
}

// newPagePlane generates and serves the world a crawl config describes
// and builds the measurement stack over it, crawling each grant with
// workers browsers at once: a local crawl's config (FabricCrawlConfig)
// and a worker's welcome config build the same plane. The caller must
// Close the plane.
func newPagePlane(c wire.CrawlConfig, workers int) (*pagePlane, error) {
	era, err := webgen.ParseEra(c.Era)
	if err != nil {
		return nil, fmt.Errorf("core: crawl config: %w", err)
	}
	fault, err := faultProfile(c.FaultProfile)
	if err != nil {
		return nil, err
	}
	world := newWorld(c, era)
	server, err := webserver.Start(world)
	if err != nil {
		return nil, fmt.Errorf("core: start server: %w", err)
	}
	// The analysis labels with the same rule lists the blockers use —
	// EasyList + EasyPrivacy — plus the study's manual CDN mapping
	// (the 13 hand-mapped Cloudfront hosts of §3.2).
	lab := labeler.New(
		filterlist.Parse("easylist", world.EasyListText()),
		filterlist.Parse("easyprivacy", world.EasyPrivacyText()),
	)
	lab.SetCDNMap(world.CloudfrontMap())
	return &pagePlane{
		cfg:       c,
		workers:   workers,
		server:    server,
		recorder:  analysis.NewRecorder(lab),
		sites:     siteRoster(world),
		fault:     fault,
		faultSeed: c.FaultSeed + int64(c.CrawlIndex),
	}, nil
}

// Close shuts the plane's web server down.
func (p *pagePlane) Close() { p.server.Close() }

// crawlSeed drives link sampling and, through crawler.SiteSeed, every
// browser of this crawl.
func (p *pagePlane) crawlSeed() int64 { return crawler.CrawlSeed(p.cfg.Seed, p.cfg.CrawlIndex) }

// browserFor builds the browser for one site, seeded from (crawl seed,
// site) alone, so a site's records are independent of worker
// assignment, grant membership, retries and resume boundaries. Fetches
// and WebSockets go in-process (webserver.Fetch, webserver.DialSocket),
// faulted or not: the browser draws each connection's faults itself,
// keyed on the site's attempt (faultSeedFor).
// The dial-retry hardening keeps a transient handshake failure from
// costing a socket; it draws nothing unless a dial fails, so a
// fault-free crawl is unchanged by it.
func (p *pagePlane) browserFor(site crawler.Site) *browser.Browser {
	cfg := browser.Config{
		Version:          p.cfg.BrowserVersion,
		Seed:             crawler.SiteSeed(p.crawlSeed(), site.Domain),
		Fetch:            p.server.Fetch,
		DialWS:           p.server.DialSocket,
		Fault:            p.fault,
		FaultSeed:        p.faultSeedFor(site.Attempt),
		DialRetries:      2,
		DialRetryBackoff: 5 * time.Millisecond,
	}
	if p.newBrowser != nil {
		return p.newBrowser(cfg)
	}
	return browser.New(cfg)
}

// faultSeedFor is the fault seed of one attempt at a site: the crawl's
// own (FaultSeed + CrawlIndex) for a first attempt, and one derived from
// it and the attempt number for a retry, so a retry draws fresh faults
// rather than replaying the schedules that failed it. Attempt numbers
// come from the site's lease in either role, so both roles draw the
// same schedules for the same attempt.
func (p *pagePlane) faultSeedFor(attempt int) int64 {
	if attempt <= 1 {
		return p.faultSeed
	}
	return faultnet.DeriveSeed(p.faultSeed, int64(attempt))
}

// crawlerConfig is the worker-pool configuration of the plane's grants.
func (p *pagePlane) crawlerConfig(onPage func(crawler.Site, string, *browser.PageResult)) crawler.Config {
	return crawler.Config{
		Workers:      p.workers,
		PagesPerSite: p.cfg.PagesPerSite,
		Seed:         p.crawlSeed(),
		SiteBrowser:  p.browserFor,
		OnPage:       onPage,
	}
}

// runGrant crawls one grant's sites through the plane's worker pool and
// emits every page's record: the page path of both roles, behind
// dispatch.Run's worker loops and a fabric worker's RunBatch alike. It
// returns the pages emitted and the sites whose attempt failed.
func (p *pagePlane) runGrant(ctx context.Context, sites []crawler.Site, stats *crawler.Stats, emit func(site string, rec *analysis.PageRecord) error) (int, map[string]string, error) {
	var pages atomic.Int64
	failed, err := crawler.Crawl(ctx, sites, p.crawlerConfig(func(site crawler.Site, pageURL string, res *browser.PageResult) {
		if p.emitPage(site, pageURL, res, emit) {
			pages.Add(1)
		}
	}), stats)
	return int(pages.Load()), failed, err
}

// emitPage is the record step: it records one loaded page, timed as
// crawl.record, and hands the record to emit. A page that does not
// record is dropped; true means emit took the record.
func (p *pagePlane) emitPage(site crawler.Site, pageURL string, res *browser.PageResult, emit func(site string, rec *analysis.PageRecord) error) bool {
	span := obs.StartSpan(obs.CrawlRecord)
	rec, err := p.recorder.RecordPage(site, pageURL, res)
	if err != nil {
		return false // unparseable page
	}
	span.End()
	return emit(site.Domain, rec) == nil
}
