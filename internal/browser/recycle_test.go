package browser_test

import (
	"context"
	"reflect"
	"testing"
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

// TestVisitRecyclingMatchesFreshBrowser is the recycling oracle at the
// record level: a 40-publisher crawl whose pages recycle one worker's
// per-visit storage — DOM arena, event slabs, URL slab, header maps,
// handed from each site's browser to the next — and share one recorder
// must record exactly what the same crawl records when every page
// starts on fresh storage and a fresh recorder. A reset that leaves one
// page's node, event or URL behind for the next shows up as a record
// that differs. It runs fault-free and under the flaky profile, whose
// cut sockets and failed loads take the browser's error paths.
func TestVisitRecyclingMatchesFreshBrowser(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls 40 publishers four times")
	}
	var faultFree []*analysis.PageRecord
	for _, profile := range []string{"", "flaky"} {
		name := profile
		if name == "" {
			name = "fault-free"
		}
		t.Run(name, func(t *testing.T) {
			recycled := recordCrawl(t, profile, false)
			fresh := recordCrawl(t, profile, true)
			if len(recycled) != len(fresh) {
				t.Fatalf("%d records recycling, %d on fresh storage", len(recycled), len(fresh))
			}
			sockets := 0
			for i := range recycled {
				if !reflect.DeepEqual(recycled[i], fresh[i]) {
					t.Fatalf("record %d (%s) differs:\nrecycling %+v\n    fresh %+v", i, fresh[i].PageURL, recycled[i], fresh[i])
				}
				sockets += len(fresh[i].Sockets)
			}
			if sockets == 0 {
				t.Fatalf("%d records and no socket: too quiet to compare", len(fresh))
			}
			if profile == "" {
				faultFree = fresh
				t.Logf("%d records, %d sockets", len(fresh), sockets)
				return
			}
			// The faults must have reached the records, or this row
			// took no error path the fault-free one did not.
			changed := len(fresh) != len(faultFree)
			for i := 0; !changed && i < len(fresh); i++ {
				changed = !reflect.DeepEqual(fresh[i], faultFree[i])
			}
			if !changed {
				t.Fatalf("%d records, all as without faults: the profile changed nothing", len(fresh))
			}
			t.Logf("%d records, %d sockets", len(fresh), sockets)
		})
	}
}

// recordCrawl crawls a 40-publisher world with one worker, as the page
// plane does, and returns every page's record in crawl order. fresh
// gives each page new per-visit storage and a recorder of its own.
func recordCrawl(t *testing.T, profile string, fresh bool) []*analysis.PageRecord {
	t.Helper()
	const seed = 31
	world := webgen.NewWorld(webgen.Config{Seed: seed, NumPublishers: 40, Era: webgen.EraPrePatch})
	var fault faultnet.Profile
	if profile != "" {
		var ok bool
		if fault, ok = faultnet.ByName(profile); !ok {
			t.Fatalf("no fault profile %q", profile)
		}
	}
	server, err := webserver.Start(world)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	lab := labeler.New(
		filterlist.Parse("easylist", world.EasyListText()),
		filterlist.Parse("easyprivacy", world.EasyPrivacyText()))
	lab.SetCDNMap(world.CloudfrontMap())
	recorder := analysis.NewRecorder(lab)

	var (
		cur     *browser.Browser
		records []*analysis.PageRecord
		stats   crawler.Stats
		sites   []crawler.Site
	)
	for _, p := range world.Publishers {
		sites = append(sites, crawler.Site{Domain: p.Domain, Rank: p.Rank})
	}
	cfg := crawler.Config{
		Workers: 1, PagesPerSite: 4, Seed: seed,
		SiteBrowser: func(site crawler.Site) *browser.Browser {
			cur = browser.New(browser.Config{
				Version: 57, Seed: crawler.SiteSeed(seed, site.Domain),
				Fetch: server.Fetch, DialWS: server.DialSocket,
				Fault: fault, FaultSeed: 1,
				DialRetries: 2, DialRetryBackoff: 5 * time.Millisecond,
			})
			if fresh {
				browser.FreshScratch(cur)
			}
			return cur
		},
		OnPage: func(site crawler.Site, pageURL string, res *browser.PageResult) {
			r := recorder
			if fresh {
				r = analysis.NewRecorder(lab)
			}
			rec, err := r.RecordPage(site, pageURL, res)
			if err != nil {
				t.Errorf("%s: %v", pageURL, err)
				return
			}
			records = append(records, rec)
			if fresh {
				browser.FreshScratch(cur)
			}
		},
	}
	if _, err := crawler.Crawl(context.Background(), sites, cfg, &stats); err != nil {
		t.Fatal(err)
	}
	return records
}
