package crawler

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/browser"
)

// TestStatsConcurrentSnapshot is the race audit for the shared *Stats:
// several goroutines crawl sites into one Stats while an observer reads
// Snapshot in a tight loop, the way a progress reporter would. Under
// -race (the Makefile's race gate runs this package with GOMAXPROCS > 1)
// any non-atomic access fails; the final assertions catch lost updates.
func TestStatsConcurrentSnapshot(t *testing.T) {
	w, s := testEnv(t)
	sites := make([]Site, 0, len(w.Publishers))
	for _, p := range w.Publishers {
		sites = append(sites, Site{Domain: p.Domain, Rank: p.Rank})
	}
	cfg := Config{PagesPerSite: 3, Seed: 7}

	var shared Stats
	stop := make(chan struct{})
	observer := make(chan struct{})
	go func() {
		defer close(observer)
		var last Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := shared.Snapshot()
			if snap.Pages < last.Pages || snap.Sites < last.Sites {
				t.Error("counters went backwards between snapshots")
				return
			}
			last = snap
		}
	}()

	const workers = 8
	work := make(chan Site)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for site := range work {
				b := browser.New(browser.Config{
					Version: 57, Seed: SiteSeed(7, site.Domain),
					HTTPClient: s.Client(), ResolveWS: s.Resolver(),
				})
				if _, err := CrawlSite(context.Background(), b, site, cfg, &shared); err != nil {
					t.Errorf("%s: %v", site.Domain, err)
				}
			}
		}()
	}
	for _, site := range sites {
		work <- site
	}
	close(work)
	wg.Wait()
	close(stop)
	<-observer

	final := shared.Snapshot()
	if final.Sites != int64(len(sites)) {
		t.Errorf("sites = %d, want %d (lost updates?)", final.Sites, len(sites))
	}
	if final.Pages < final.Sites {
		t.Errorf("pages = %d < sites = %d", final.Pages, final.Sites)
	}
	if final != shared {
		t.Errorf("snapshot %+v != settled stats %+v", final, shared)
	}
}

// Snapshot returns an atomically loaded copy of the counters, safe to
// call while workers are still incrementing them.
func (s *Stats) Snapshot() Stats {
	return Stats{
		Sites:      atomic.LoadInt64(&s.Sites),
		Pages:      atomic.LoadInt64(&s.Pages),
		PageErrors: atomic.LoadInt64(&s.PageErrors),
		SiteErrors: atomic.LoadInt64(&s.SiteErrors),
		SitePanics: atomic.LoadInt64(&s.SitePanics),
	}
}
