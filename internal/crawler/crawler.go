// Package crawler implements the paper's crawl methodology (§3.3): for
// every site, visit the homepage, extract same-site links, and visit up
// to 15 of them at random, topping up from links discovered on visited
// pages when the homepage offers fewer.
//
// The crawler is deterministic per (seed, site) and runs the sites of
// one grant — the sites internal/dispatch leased to one holder, a local
// worker loop or a fabric worker — across a worker pool (Crawl). Every
// site is crawled with a fresh browser from Config.SiteBrowser (one
// synthetic user per site, like a clean Chrome profile per visit), so a
// site's results do not depend on which worker crawled it or in what
// order.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/browser"
	"repro/internal/detrand"
	"repro/internal/obs"
)

// Site is one crawl target.
type Site struct {
	// Domain is the site's registrable domain.
	Domain string
	// Rank is its Alexa-style rank (carried through to records).
	Rank int
	// Attempt numbers this crawl of the site: 1 for its first try, 2
	// for its first retry… (0 reads as 1). It keys the site's fault
	// schedules (see core's page plane) and reaches no record.
	Attempt int
}

// Config parameterizes a crawl.
type Config struct {
	// Workers is the number of parallel site crawlers (default 8).
	Workers int
	// PagesPerSite caps pages visited per site including the homepage
	// (default 15, the paper's budget).
	PagesPerSite int
	// Seed drives per-site link sampling.
	Seed int64
	// SiteBrowser builds the browser for one site. Seed it from the site
	// (SiteSeed), not from anything about the worker: that keeps a
	// site's results independent of worker assignment and visit order,
	// which every entry point relies on for byte-identical datasets and
	// dispatch for deterministic retries and resume. Required by Crawl;
	// CrawlSite takes its browser directly.
	SiteBrowser func(site Site) *browser.Browser
	// OnPage receives every successfully loaded page. It may be called
	// concurrently from workers.
	OnPage func(site Site, pageURL string, res *browser.PageResult)
}

// Stats summarizes a crawl. Counters are attempt-level: a site that is
// retried by an external scheduler counts once per attempt.
//
// Concurrency: workers increment the shared *Stats with atomic adds
// while the crawl runs. Reading the fields directly is safe only after
// every Crawl sharing them has returned; a concurrent observer (a progress
// reporter, a test asserting mid-crawl invariants) must load every
// counter atomically. The same counters are mirrored to the obs registry
// (crawl.pages, crawl.page_errors, crawl.sites, crawl.site_errors,
// crawl.site_panics) for live monitoring without touching Stats at all.
type Stats struct {
	// Sites counts site crawl attempts that actually reached the
	// network (the homepage visit returned). Sites skipped because the
	// context was already cancelled are not counted.
	Sites int64
	// Pages counts successfully loaded pages.
	Pages int64
	// PageErrors counts failed page loads (cancellation excluded).
	PageErrors int64
	// SiteErrors counts site attempts that produced no pages: the
	// homepage failed or the site crawl panicked.
	SiteErrors int64
	// SitePanics counts panics recovered inside per-site crawls.
	SitePanics int64
}

// SiteError reports a site whose crawl failed outright (its homepage
// could not be loaded, so no pages were observed).
type SiteError struct {
	Site string
	Err  error
}

func (e *SiteError) Error() string { return fmt.Sprintf("crawler: site %s: %v", e.Site, e.Err) }
func (e *SiteError) Unwrap() error { return e.Err }

// PanicError reports a panic recovered during a per-site crawl.
type PanicError struct {
	Site  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("crawler: panic crawling %s: %v", e.Site, e.Value)
}

// Crawl is the worker pool: it crawls each of sites once across
// min(cfg.Workers, len(sites)) goroutines, every site with a fresh
// browser from cfg.SiteBrowser, released once the site is done so the
// next site's pages recycle its per-visit storage (browser.Release), and
// with per-site panic recovery, and
// returns the sites whose attempt failed with their errors. A site cut
// short by cancellation is not a failure; err is ctx.Err() once ctx
// ends. stats accumulates the attempt counters and may be shared across
// calls.
func Crawl(ctx context.Context, sites []Site, cfg Config, stats *Stats) (failed map[string]string, err error) {
	if cfg.SiteBrowser == nil {
		return nil, fmt.Errorf("crawler: Config.SiteBrowser is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for w := 0; w < min(workers, len(sites)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sites) || ctx.Err() != nil {
					return
				}
				site := sites[i]
				b := cfg.SiteBrowser(site)
				_, err := CrawlSite(ctx, b, site, cfg, stats)
				b.Release()
				if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					continue
				}
				mu.Lock()
				if failed == nil {
					failed = map[string]string{}
				}
				failed[site.Domain] = err.Error()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failed, ctx.Err()
}

// CrawlSite crawls one site with the given browser: the homepage plus
// up to cfg.PagesPerSite-1 sampled same-site links. Panics anywhere in
// the browser/page pipeline are recovered and counted in stats, so a
// single broken site cannot kill the whole crawl. The returned error is
// nil for a completed site, ctx.Err() when cancelled (possibly after
// some pages loaded), a *SiteError when the homepage failed, or a
// *PanicError after a recovered panic.
func CrawlSite(ctx context.Context, b *browser.Browser, site Site, cfg Config, stats *Stats) (pages int, err error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&stats.SitePanics, 1)
			atomic.AddInt64(&stats.SiteErrors, 1)
			obs.CrawlSitePanics.Inc()
			obs.CrawlSiteErrors.Inc()
			err = &PanicError{Site: site.Domain, Value: r, Stack: debug.Stack()}
		}
	}()
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	pagesPer := cfg.PagesPerSite
	if pagesPer <= 0 {
		pagesPer = 15
	}
	rng := siteRand(cfg.Seed, site.Domain)

	home := "http://" + site.Domain + "/"
	pageSpan := obs.StartSpan(obs.CrawlPage)
	visitSpan := obs.StartSpan(obs.CrawlVisit)
	res, verr := b.Visit(ctx, home)
	if ctx.Err() != nil {
		// A visit that overlapped cancellation may have fetched only
		// part of the page; discard it rather than record a torn page.
		return 0, ctx.Err()
	}
	if verr != nil {
		atomic.AddInt64(&stats.Sites, 1)
		atomic.AddInt64(&stats.PageErrors, 1)
		atomic.AddInt64(&stats.SiteErrors, 1)
		obs.CrawlSites.Inc()
		obs.CrawlPageErrors.Inc()
		obs.CrawlSiteErrors.Inc()
		return 0, &SiteError{Site: site.Domain, Err: verr}
	}
	visitSpan.End()
	atomic.AddInt64(&stats.Sites, 1)
	atomic.AddInt64(&stats.Pages, 1)
	obs.CrawlSites.Inc()
	obs.CrawlPages.Inc()
	if cfg.OnPage != nil {
		cfg.OnPage(site, home, res)
	}
	pageSpan.End()
	pages = 1
	visited := map[string]bool{home: true}

	// The frontier starts with the homepage's links, shuffled; links
	// found on visited pages top it up when the homepage has fewer
	// than the budget.
	frontier := shuffled(rng, res.Links)
	for len(frontier) > 0 && len(visited) < pagesPer {
		if ctx.Err() != nil {
			return pages, ctx.Err()
		}
		next := frontier[0]
		frontier = frontier[1:]
		if visited[next] {
			continue
		}
		res := visit(ctx, b, site, next, cfg, stats)
		visited[next] = true
		if res == nil {
			continue
		}
		pages++
		// Top up the frontier from newly discovered links.
		if len(visited)+len(frontier) < pagesPer {
			for _, l := range shuffled(rng, res.Links) {
				if !visited[l] {
					frontier = append(frontier, l)
				}
			}
		}
	}
	if ctx.Err() != nil {
		return pages, ctx.Err()
	}
	return pages, nil
}

func visit(ctx context.Context, b *browser.Browser, site Site, url string, cfg Config, stats *Stats) *browser.PageResult {
	pageSpan := obs.StartSpan(obs.CrawlPage)
	visitSpan := obs.StartSpan(obs.CrawlVisit)
	res, err := b.Visit(ctx, url)
	if ctx.Err() != nil {
		// Discard pages whose visit overlapped cancellation: they may be
		// torn (partially fetched), and the site will be re-crawled.
		return nil
	}
	if err != nil {
		atomic.AddInt64(&stats.PageErrors, 1)
		obs.CrawlPageErrors.Inc()
		return nil
	}
	visitSpan.End()
	atomic.AddInt64(&stats.Pages, 1)
	obs.CrawlPages.Inc()
	if cfg.OnPage != nil {
		cfg.OnPage(site, url, res)
	}
	pageSpan.End()
	return res
}

// siteRand derives the per-site link-sampling RNG.
func siteRand(seed int64, domain string) *rand.Rand {
	return detrand.New(siteKey("", seed, domain))
}

// siteKey is FNV-1a (hash/fnv's New64a) over prefix, seed in decimal,
// '|' and domain, hashed in place: the hash.Hash64 interface and
// fmt.Fprintf would heap-allocate the state and box every operand.
func siteKey(prefix string, seed int64, domain string) int64 {
	var buf [20]byte
	h := fnv1a(14695981039346656037, prefix)
	h = fnv1a(h, strconv.AppendInt(buf[:0], seed, 10))
	h = fnv1a(h, "|")
	return int64(fnv1a(h, domain))
}

func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// shuffled returns a shuffled copy.
func shuffled(rng *rand.Rand, in []string) []string {
	out := append([]string(nil), in...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// CrawlSeed derives the seed of one crawl of a study from the study's
// seed. It drives the crawl's link sampling, roots every SiteSeed of the
// crawl, and is the seed its store pins, so every role that runs
// or resumes the crawl — local, coordinator, worker — must derive it
// here.
func CrawlSeed(seed int64, crawlIndex int) int64 { return seed + int64(crawlIndex) }

// SiteSeed derives a per-site browser seed: results for a site become a
// pure function of (seed, site), independent of worker assignment —
// the property dispatch needs so retried and resumed sites reproduce
// their original records exactly.
func SiteSeed(seed int64, domain string) int64 {
	return siteKey("site|", seed, domain)
}
