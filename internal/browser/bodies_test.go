package browser_test

import (
	"context"
	"crypto/sha256"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/faultnet"
	"repro/internal/filterlist"
	"repro/internal/labeler"
	"repro/internal/urlutil"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// TestFetchedBodiesStayUnwritten holds the browser and the recorder to
// Config.Fetch's contract from the other side: no one writes a body
// once Fetch has returned it. The browser parses documents and scripts
// where they lie and strings cut from them outlive the visit, so a
// write would change a link in a crawler's frontier after the fact. A
// Fetch wrapper hashes every body it returns; each must hash the same
// after its page is recorded and after every later visit. The wrapper
// fronts the server's Fetch, fault-free and under the flaky profile,
// whose failed fetches take the browser's error paths.
func TestFetchedBodiesStayUnwritten(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls 12 publishers twice")
	}
	for _, profile := range []string{"", "flaky"} {
		name := profile
		if name == "" {
			name = "in-process"
		}
		t.Run(name, func(t *testing.T) { checkBodiesUnwritten(t, profile) })
	}
}

type fetchedBody struct {
	url  string
	body []byte
	sum  [sha256.Size]byte
}

func checkBodiesUnwritten(t *testing.T, profile string) {
	const seed = 31
	world := webgen.NewWorld(webgen.Config{Seed: seed, NumPublishers: 12, Era: webgen.EraPrePatch})
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

	var fetched []fetchedBody
	keep := func(u *urlutil.URL, body []byte) {
		if len(body) > 0 {
			fetched = append(fetched, fetchedBody{url: u.String(), body: body, sum: sha256.Sum256(body)})
		}
	}
	fetch := func(u *urlutil.URL, post []byte) (int, string, []byte, error) {
		status, ctype, body, err := server.Fetch(u, post)
		keep(u, body)
		return status, ctype, body, err
	}
	check := func(when string) {
		t.Helper()
		for _, f := range fetched {
			if sha256.Sum256(f.body) != f.sum {
				t.Fatalf("the body of %s changed %s", f.url, when)
			}
		}
	}

	var sites []crawler.Site
	for _, p := range world.Publishers {
		sites = append(sites, crawler.Site{Domain: p.Domain, Rank: p.Rank})
	}
	pages := 0
	cfg := crawler.Config{
		Workers: 1, PagesPerSite: 4, Seed: seed,
		SiteBrowser: func(site crawler.Site) *browser.Browser {
			return browser.New(browser.Config{
				Version: 57, Seed: crawler.SiteSeed(seed, site.Domain),
				Fetch: fetch, DialWS: server.DialSocket,
				Fault: fault, FaultSeed: 1,
				DialRetries: 2, DialRetryBackoff: 5 * time.Millisecond,
			})
		},
		OnPage: func(site crawler.Site, pageURL string, res *browser.PageResult) {
			check("during the visit of " + pageURL + " or a later one")
			if _, err := recorder.RecordPage(site, pageURL, res); err != nil {
				t.Errorf("%s: %v", pageURL, err)
			}
			check("while " + pageURL + " was recorded")
			pages++
		},
	}
	var stats crawler.Stats
	if _, err := crawler.Crawl(context.Background(), sites, cfg, &stats); err != nil {
		t.Fatal(err)
	}
	check("by the end of the crawl")
	if pages < 20 || len(fetched) < 10*pages {
		t.Fatalf("%d pages, %d bodies: too few to tell", pages, len(fetched))
	}
	t.Logf("%d pages, %d bodies, each unchanged", pages, len(fetched))
}
