package filterlist

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/devtools"
	"repro/internal/inclusion"
	"repro/internal/urlutil"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// TestCrawlDecisionsMatchLinear is the crawl-level proof that the
// indexed engine is a pure optimization: a real crawl of a generated
// web, labeled with that web's EasyList + EasyPrivacy, asks the engine
// and the linear oracle about every URL-bearing node of every inclusion
// tree — each request with its own resource type, each script as a
// script, under the page's host, which are the questions
// labeler.TagTree and labeler.MatchChain ask — and requires the same
// full Decision. Equal decisions on every question the pipeline asks
// imply the byte-identical dataset a whole-study comparison would show.
func TestCrawlDecisionsMatchLinear(t *testing.T) {
	world := webgen.NewWorld(webgen.Config{Seed: 77, NumPublishers: 40, Era: webgen.EraPrePatch})
	server, err := webserver.Start(world)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	g := NewGroup(
		Parse("easylist", world.EasyListText()),
		Parse("easyprivacy", world.EasyPrivacyText()),
	)

	var sites []crawler.Site
	for _, p := range world.Publishers {
		sites = append(sites, crawler.Site{Domain: p.Domain, Rank: p.Rank})
	}
	var asked, blocked atomic.Int64
	_, err = crawler.Crawl(context.Background(), sites, crawler.Config{
		Workers:      4,
		PagesPerSite: 3,
		Seed:         77,
		SiteBrowser: func(site crawler.Site) *browser.Browser {
			return browser.New(browser.Config{
				Version: 57, Seed: crawler.SiteSeed(77, site.Domain),
				Fetch: server.Fetch, ResolveWS: server.Resolver(),
			})
		},
		OnPage: func(_ crawler.Site, pageURL string, res *browser.PageResult) {
			tree, err := inclusion.Build(res.Trace)
			if err != nil {
				t.Errorf("%s: %v", pageURL, err)
				return
			}
			pageHost := ""
			if u, err := urlutil.Parse(tree.PageURL); err == nil {
				pageHost = u.Host
			}
			tree.Root.Walk(func(n *inclusion.Node) bool {
				u := n.ParsedURL()
				if u == nil {
					return true
				}
				typ := n.Type
				if n.Kind == inclusion.KindScript {
					typ = devtools.ResourceScript
				}
				d, err := checkAgainstLinear(g, Request{URL: u, Type: typ, PageHost: pageHost})
				if err != nil {
					t.Errorf("%s: %v", pageURL, err)
				}
				asked.Add(1)
				if d.Blocked {
					blocked.Add(1)
				}
				return true
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A crawl that asked little, or never met a blocked resource, proved
	// nothing.
	if asked.Load() < 1000 || blocked.Load() == 0 {
		t.Fatalf("crawl asked %d questions, %d blocked: too thin to be a differential", asked.Load(), blocked.Load())
	}
}
