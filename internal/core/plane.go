package core

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/faultnet"
	"repro/internal/filterlist"
	"repro/internal/labeler"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// pagePlane is the one page pipeline behind every crawl entry point —
// in-memory RunCrawl, dispatched RunCrawl, and the fabric worker's
// FabricRunner. It owns the served synthetic world, the rule lists and
// labeler behind the recorder, and the site roster, and it is the only
// place a browser is configured. Because all three entry points crawl
// through the same plane with per-site seeded browsers, the same
// (Options, CrawlSpec) yields a byte-identical dataset whichever one
// ran it (TestEntryPointsAgree).
type pagePlane struct {
	opts   Options
	spec   CrawlSpec
	server *webserver.Server
	// client and resolve are the wire route to server, built once: every
	// browser of the plane shares the one keep-alive pool, and Close
	// empties it.
	client    *http.Client
	resolve   func(hostport string) string
	recorder  *analysis.Recorder
	sites     []crawler.Site
	fault     faultnet.Profile
	faultSeed int64
	// reference selects the retained seed plane — wire fetches through
	// the full TCP + net/http stack, fresh per-page scratch, un-pooled
	// recorder; the durable ledger under it is the same either way. It
	// produces the same bytes as the shipping plane and exists only as
	// the differential oracle proving that: TestPipelineDifferential and
	// BenchmarkCrawlPipelineReference are the only callers that set it.
	reference bool
}

// newWorld generates the synthetic web for one crawl of the study.
func newWorld(opts Options, spec CrawlSpec) *webgen.World {
	return webgen.NewWorld(webgen.Config{
		Seed:          opts.Seed,
		NumPublishers: opts.NumPublishers,
		Era:           spec.Era,
		CrawlIndex:    spec.CrawlIndex,
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

// newPagePlane generates and serves the world for one crawl and builds
// the measurement stack over it. The caller must Close the plane.
func newPagePlane(opts Options, spec CrawlSpec, reference bool) (*pagePlane, error) {
	opts = withDefaults(opts)
	fault, err := faultProfile(opts.FaultProfile)
	if err != nil {
		return nil, err
	}
	faultSeed := opts.FaultSeed + int64(spec.CrawlIndex)
	world := newWorld(opts, spec)
	server, err := webserver.StartWith(world, webserver.Options{Fault: fault, FaultSeed: faultSeed})
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
		opts:      opts,
		spec:      spec,
		server:    server,
		client:    server.Client(),
		resolve:   server.Resolver(),
		recorder:  &analysis.Recorder{Label: lab, Pooled: !reference},
		sites:     siteRoster(world),
		fault:     fault,
		faultSeed: faultSeed,
		reference: reference,
	}, nil
}

// Close drops the wire client's idle connections and shuts the plane's
// web server down.
func (p *pagePlane) Close() {
	p.client.CloseIdleConnections()
	p.server.Close()
}

// crawlSeed drives link sampling and, through crawler.SiteSeed, every
// browser of this crawl.
func (p *pagePlane) crawlSeed() int64 { return p.opts.Seed + int64(p.spec.CrawlIndex) }

// browserFor builds the browser for one site, seeded from (crawl seed,
// site) alone, so a site's records are independent of worker
// assignment, batch membership, retries and resume boundaries. Fetches
// and WebSockets go in-process (webserver.Fetch, webserver.DialSocket)
// unless faults are armed — bypassing the wire would bypass the
// injected faults — and an armed profile also wraps the browser's
// WebSocket dials and adds the dial-retry hardening that keeps
// transient handshake failures from costing a socket.
func (p *pagePlane) browserFor(site crawler.Site) *browser.Browser {
	cfg := browser.Config{
		Version:      p.spec.BrowserVersion,
		Seed:         crawler.SiteSeed(p.crawlSeed(), site.Domain),
		HTTPClient:   p.client,
		ResolveWS:    p.resolve,
		ReuseScratch: !p.reference,
	}
	if !p.reference && !p.fault.Enabled() {
		cfg.Fetch, cfg.DialWS = p.server.Fetch, p.server.DialSocket
	}
	if p.fault.Enabled() {
		cfg.Fault = p.fault
		cfg.FaultSeed = p.faultSeed
		cfg.DialRetries = 2
		cfg.DialRetryBackoff = 5 * time.Millisecond
	}
	return browser.New(cfg)
}

// crawlerConfig is the worker-pool configuration for crawls that drive
// crawler.Crawl/CrawlSource themselves (in-memory, fabric batches); the
// dispatch orchestrator assembles the same values from dispatch.Config.
func (p *pagePlane) crawlerConfig(onPage func(crawler.Site, string, *browser.PageResult)) crawler.Config {
	return crawler.Config{
		Workers:      p.opts.Workers,
		PagesPerSite: p.opts.PagesPerSite,
		Seed:         p.crawlSeed(),
		SiteBrowser:  p.browserFor,
		OnPage:       onPage,
	}
}
