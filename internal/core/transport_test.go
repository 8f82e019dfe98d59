package core

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/obs"
)

// transportRun is what one crawl of the plane's sites left behind: each
// page's complete devtools trace, and how far the server's counters
// moved.
type transportRun struct {
	traces   map[string][]byte // page URL → trace JSON
	sockets  int
	counters map[string]int64 // webserver.* and ws.* deltas, Stats deltas
}

// crawlOver crawls every site of the plane with the shipping browser
// configuration, its WebSockets dialed through dial (nil: loopback TCP).
func crawlOver(t *testing.T, plane *pagePlane, dial func(context.Context, string, string) (net.Conn, error)) transportRun {
	t.Helper()
	run := transportRun{traces: map[string][]byte{}, counters: map[string]int64{}}
	stats := func() map[string]int64 {
		s := &plane.server.Stats
		return map[string]int64{
			"Stats.HTTPRequests": s.HTTPRequests.Load(), "Stats.WSHandshakes": s.WSHandshakes.Load(),
			"Stats.WSMessagesSent": s.WSMessagesSent.Load(), "Stats.WSMessagesRecv": s.WSMessagesRecv.Load(),
			"Stats.NotFound": s.NotFound.Load(), "Stats.WSShed": s.WSShed.Load(), "Stats.AcceptShed": s.AcceptShed.Load(),
		}
	}
	before, statsBefore := obs.Default.Snapshot(), stats()

	cfg := plane.crawlerConfig(func(_ crawler.Site, pageURL string, res *browser.PageResult) {
		data, err := json.Marshal(res.Trace)
		if err != nil {
			t.Errorf("%s: %v", pageURL, err)
		}
		run.traces[pageURL] = data
		run.sockets += bytes.Count(data, []byte(`"Network.webSocketCreated"`))
	})
	resolve := plane.server.Resolver()
	cfg.SiteBrowser = func(site crawler.Site) *browser.Browser {
		return browser.New(browser.Config{
			Version:   plane.spec.BrowserVersion,
			Seed:      crawler.SiteSeed(plane.crawlSeed(), site.Domain),
			ResolveWS: resolve,
			Fetch:     plane.server.Fetch,
			DialWS:    dial,
		})
	}
	var crawled crawler.Stats
	for _, site := range plane.sites {
		if _, err := crawler.CrawlSite(context.Background(), cfg.SiteBrowser(site), site, cfg, &crawled); err != nil {
			t.Fatal(err)
		}
	}
	// The server counts a socket's last messages as its loop unwinds.
	for deadline := time.Now().Add(5 * time.Second); obs.WSConnsActive.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("served sockets never unwound")
		}
	}
	after := obs.Default.Snapshot()
	for name, v := range after.Counters {
		if strings.HasPrefix(name, "webserver.") || strings.HasPrefix(name, "ws.") {
			run.counters[name] = v - before.Counters[name]
		}
	}
	run.counters[obs.MWSHandshake+".count"] = after.Hists[obs.MWSHandshake].Count - before.Hists[obs.MWSHandshake].Count
	for name, v := range stats() {
		run.counters[name] = v - statsBefore[name]
	}
	return run
}

// TestSocketTransportsAgree is the differential for the in-process
// socket transport alone: the same sites crawled with WebSockets over
// loopback TCP and over webserver.DialSocket — everything else equal —
// yield event-for-event equal traces (handshake headers, statuses,
// every frame sent and received, close codes) and move every server
// counter by the same amount.
func TestSocketTransportsAgree(t *testing.T) {
	opts := Options{Seed: 20170419, NumPublishers: 40, Workers: 1, PagesPerSite: 4}
	plane, err := newPagePlane(opts, DefaultCrawls()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()

	tcp := crawlOver(t, plane, nil)
	mem := crawlOver(t, plane, plane.server.DialSocket)

	if tcp.sockets < 20 {
		t.Fatalf("crawl opened %d sockets: too thin to be a differential", tcp.sockets)
	}
	if len(tcp.traces) != len(mem.traces) {
		t.Fatalf("%d pages over TCP, %d in-process", len(tcp.traces), len(mem.traces))
	}
	for page, want := range tcp.traces {
		if got := mem.traces[page]; !bytes.Equal(got, want) {
			t.Errorf("%s: trace differs between transports\n tcp: %s\n mem: %s", page, want, got)
		}
	}
	for name, want := range tcp.counters {
		if got := mem.counters[name]; got != want {
			t.Errorf("%s moved by %d over TCP, %d in-process", name, want, got)
		}
	}
	if tcp.counters[obs.MServerHandshakes] != int64(tcp.sockets) {
		t.Errorf("%d sockets, %d handshakes", tcp.sockets, tcp.counters[obs.MServerHandshakes])
	}
}

// TestReferencePlaneWireClientIsBounded: the wire plane's browsers share
// the plane's one http.Client, whose idle pool has a total. When each
// site built its own client, every virtual host a site fetched from
// left an idle keep-alive connection — two client goroutines, one
// server goroutine, two descriptors — behind until the server shut
// down; at the paper's 100K sites that is descriptor exhaustion.
func TestReferencePlaneWireClientIsBounded(t *testing.T) {
	base := runtime.NumGoroutine()
	opts := Options{Seed: 20170419, NumPublishers: 40, Workers: 1, PagesPerSite: 1}
	plane, err := newReferencePlane(opts, DefaultCrawls()[0])
	if err != nil {
		t.Fatal(err)
	}
	visit := func(sites []crawler.Site) {
		for _, site := range sites {
			if _, err := plane.browserFor(site).Visit(context.Background(), "http://"+site.Domain+"/"); err != nil {
				t.Fatal(err)
			}
		}
	}
	// settled polls until the goroutine count is at most limit: served
	// sockets unwind a moment after the browser closes them.
	settled := func(limit int) int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(3 * time.Second); n > limit && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(5 * time.Millisecond)
		}
		return n
	}
	half := len(plane.sites) / 2
	visit(plane.sites[:half])
	time.Sleep(50 * time.Millisecond)
	mid := runtime.NumGoroutine()
	visit(plane.sites[half:])
	if n := settled(mid); n > mid {
		t.Errorf("%d goroutines after %d sites, %d after %d: the wire client grows with the crawl", mid, half, n, len(plane.sites))
	}
	plane.Close()
	if n := settled(base); n > base {
		t.Errorf("%d goroutines before the plane, %d after Close", base, n)
	}
}
