package analysis

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/content"
)

// fixtureDatasets builds two small hand-crafted crawls: a pre-patch one
// with DoubleClick-like initiators, and a post-patch one without.
func fixtureDatasets() (*Dataset, *Dataset) {
	pre := &Dataset{
		Name: "crawl-1", Era: "pre-patch", CrawlIndex: 0,
		Sites: []SiteSummary{
			{Domain: "pub-a.com", Rank: 500, Pages: 15, Sockets: 3},
			{Domain: "pub-b.com", Rank: 15000, Pages: 15, Sockets: 2},
			{Domain: "pub-c.com", Rank: 300000, Pages: 15, Sockets: 0},
			{Domain: "pub-d.com", Rank: 700000, Pages: 15, Sockets: 1},
		},
		Sockets: []SocketRecord{
			{
				Site: "pub-a.com", Rank: 500, PageURL: "http://pub-a.com/",
				URL: "ws://33across.com/ws", ReceiverDomain: "33across.com",
				InitiatorDomain: "doubleclick.net",
				ChainDomains:    []string{"pub-a.com", "doubleclick.net"},
				ChainURLs:       []string{"http://pub-a.com/", "http://cdn.doubleclick.net/w.js"},
				CrossOrigin:     true, HandshakeOK: true,
				SentItems:  []string{content.SentUserAgent, content.SentCookie, content.SentScreen},
				FramesSent: 2, FramesRecv: 1, RecvClasses: []string{content.RecvJSON},
				ChainBlocked: true,
			},
			{
				Site: "pub-a.com", Rank: 500, PageURL: "http://pub-a.com/",
				URL: "ws://zopim.com/ws", ReceiverDomain: "zopim.com",
				InitiatorDomain: "zopim.com",
				ChainDomains:    []string{"pub-a.com", "zopim.com"},
				CrossOrigin:     true, HandshakeOK: true,
				SentItems:  []string{content.SentUserAgent},
				FramesSent: 1, FramesRecv: 1, RecvClasses: []string{content.RecvHTML},
			},
			{
				Site: "pub-a.com", Rank: 500, PageURL: "http://pub-a.com/p",
				URL: "ws://lockerdome.com/ws", ReceiverDomain: "lockerdome.com",
				InitiatorDomain: "lockerdome.com",
				ChainDomains:    []string{"pub-a.com", "lockerdome.com"},
				CrossOrigin:     true, HandshakeOK: true,
				SentItems:  []string{content.SentUserAgent, content.SentCookie},
				FramesSent: 1, FramesRecv: 2, RecvClasses: []string{content.RecvJSON},
				AdRefs: 2, AdSamples: []string{"Odd Trick To Fix Sagging Skin"},
			},
			{
				Site: "pub-b.com", Rank: 15000, PageURL: "http://pub-b.com/",
				URL: "ws://intercom.io/ws", ReceiverDomain: "intercom.io",
				InitiatorDomain: "pub-b.com",
				ChainDomains:    []string{"pub-b.com", "pub-b.com"},
				CrossOrigin:     true, HandshakeOK: true,
				FramesSent: 0, FramesRecv: 0,
				SentItems: []string{content.SentUserAgent},
			},
			{
				Site: "pub-b.com", Rank: 15000, PageURL: "http://pub-b.com/",
				URL: "ws://feed01-rt.net/stream", ReceiverDomain: "feed01-rt.net",
				InitiatorDomain: "pub-b.com",
				ChainDomains:    []string{"pub-b.com", "pub-b.com"},
				CrossOrigin:     true, HandshakeOK: true,
				FramesSent: 1, FramesRecv: 1, RecvClasses: []string{content.RecvJSON},
				SentItems: []string{content.SentUserAgent},
			},
			{
				Site: "pub-d.com", Rank: 700000, PageURL: "http://pub-d.com/",
				URL: "ws://pub-d.com/live", ReceiverDomain: "pub-d.com",
				InitiatorDomain: "pub-d.com",
				ChainDomains:    []string{"pub-d.com", "pub-d.com"},
				CrossOrigin:     false, HandshakeOK: true,
				FramesSent: 1, FramesRecv: 1, RecvClasses: []string{content.RecvJSON},
				SentItems: []string{content.SentUserAgent},
			},
		},
		HTTPByDomain: map[string]*DomainTraffic{
			"doubleclick.net": {
				Domain: "doubleclick.net", Requests: 100,
				SentItems:     map[string]int{content.SentUserAgent: 100, content.SentCookie: 30},
				RecvClasses:   map[string]int{content.RecvJavaScript: 50, content.RecvImage: 40},
				ChainsBlocked: 60,
			},
			"benigncdn.com": {
				Domain: "benigncdn.com", Requests: 200,
				SentItems:   map[string]int{content.SentUserAgent: 200},
				RecvClasses: map[string]int{content.RecvJavaScript: 150},
			},
		},
		AADomains: []string{"doubleclick.net", "33across.com", "zopim.com", "lockerdome.com", "intercom.io"},
	}

	post := &Dataset{
		Name: "crawl-4", Era: "post-patch", CrawlIndex: 3,
		Sites: []SiteSummary{
			{Domain: "pub-a.com", Rank: 500, Pages: 15, Sockets: 2},
			{Domain: "pub-b.com", Rank: 15000, Pages: 15, Sockets: 1},
			{Domain: "pub-c.com", Rank: 300000, Pages: 15, Sockets: 0},
			{Domain: "pub-d.com", Rank: 700000, Pages: 15, Sockets: 0},
		},
		Sockets: []SocketRecord{
			{
				Site: "pub-a.com", Rank: 500, PageURL: "http://pub-a.com/",
				URL: "ws://zopim.com/ws", ReceiverDomain: "zopim.com",
				InitiatorDomain: "zopim.com",
				ChainDomains:    []string{"pub-a.com", "zopim.com"},
				CrossOrigin:     true, HandshakeOK: true,
				SentItems:  []string{content.SentUserAgent},
				FramesSent: 1, FramesRecv: 1, RecvClasses: []string{content.RecvHTML},
			},
			{
				Site: "pub-a.com", Rank: 500, PageURL: "http://pub-a.com/",
				URL: "ws://lockerdome.com/ws", ReceiverDomain: "lockerdome.com",
				InitiatorDomain: "lockerdome.com",
				ChainDomains:    []string{"pub-a.com", "lockerdome.com"},
				CrossOrigin:     true, HandshakeOK: true,
				SentItems:  []string{content.SentUserAgent},
				FramesSent: 1, FramesRecv: 1, RecvClasses: []string{content.RecvJSON},
			},
			{
				Site: "pub-b.com", Rank: 15000, PageURL: "http://pub-b.com/",
				URL: "ws://intercom.io/ws", ReceiverDomain: "intercom.io",
				InitiatorDomain: "pub-b.com",
				ChainDomains:    []string{"pub-b.com", "pub-b.com"},
				CrossOrigin:     true, HandshakeOK: true,
				SentItems:  []string{content.SentUserAgent},
				FramesSent: 1, FramesRecv: 0,
			},
		},
		HTTPByDomain: map[string]*DomainTraffic{},
		AADomains:    []string{"zopim.com", "lockerdome.com", "intercom.io"},
	}
	return pre, post
}

func TestTable1(t *testing.T) {
	pre, post := fixtureDatasets()
	rows := Table1(pre, post)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// 3 of 4 sites have sockets.
	if r.PctSitesWithSockets != 75.0 {
		t.Errorf("pct sites = %v", r.PctSitesWithSockets)
	}
	// A&A-initiated: doubleclick, zopim, lockerdome chains = 3 of 6.
	if r.PctAAInitiated != 50.0 {
		t.Errorf("pct AA initiated = %v", r.PctAAInitiated)
	}
	// A&A receivers: 33across, zopim, lockerdome, intercom = 4 of 6.
	if r.PctAAReceived < 66 || r.PctAAReceived > 67 {
		t.Errorf("pct AA received = %v", r.PctAAReceived)
	}
	if r.UniqueAAInitiators != 3 {
		t.Errorf("unique initiators = %d", r.UniqueAAInitiators)
	}
	if r.UniqueAAReceivers != 4 {
		t.Errorf("unique receivers = %d", r.UniqueAAReceivers)
	}
	// Post-patch: doubleclick gone.
	if rows[1].UniqueAAInitiators != 2 {
		t.Errorf("post unique initiators = %d", rows[1].UniqueAAInitiators)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "crawl-1") || !strings.Contains(out, "post-patch") {
		t.Error("render missing crawl rows")
	}
}

func TestTable2(t *testing.T) {
	pre, post := fixtureDatasets()
	rows := Table2(15, pre, post)
	byDomain := map[string]InitiatorRow{}
	for _, r := range rows {
		byDomain[r.Domain] = r
	}
	pubB := byDomain["pub-b.com"]
	if pubB.Receivers != 2 || pubB.AAReceivers != 1 {
		t.Errorf("pub-b row = %+v", pubB)
	}
	dc := byDomain["doubleclick.net"]
	if !dc.IsAA || dc.Receivers != 1 || dc.SocketCount != 1 {
		t.Errorf("doubleclick row = %+v", dc)
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "*doubleclick.net") {
		t.Error("A&A initiator not starred")
	}
}

func TestTable3(t *testing.T) {
	pre, post := fixtureDatasets()
	rows := Table3(15, pre, post)
	for _, r := range rows {
		if r.Domain == "feed01-rt.net" || r.Domain == "pub-d.com" {
			t.Errorf("non-A&A receiver %s in Table 3", r.Domain)
		}
	}
	byDomain := map[string]ReceiverRow{}
	for _, r := range rows {
		byDomain[r.Domain] = r
	}
	ic := byDomain["intercom.io"]
	if ic.Initiators != 1 || ic.AAInitiators != 0 || ic.SocketCount != 2 {
		t.Errorf("intercom row = %+v", ic)
	}
	zp := byDomain["zopim.com"]
	if zp.SocketCount != 2 || zp.AAInitiators != 1 {
		t.Errorf("zopim row = %+v", zp)
	}
}

func TestTable4(t *testing.T) {
	pre, post := fixtureDatasets()
	s := Lookup("table", "4")
	rows := s.Cut(s.Rows(UnionAASet(pre, post), pre, post), 15).([]PairRow)
	if len(rows) == 0 {
		t.Fatal("no pairs")
	}
	last := rows[len(rows)-1]
	if !last.SelfAggregate {
		t.Fatal("missing self-aggregate row")
	}
	// Self pairs: zopim x2, lockerdome x2, pub-d x0 (pub-d not A&A).
	if last.SocketCount != 4 {
		t.Errorf("self aggregate = %d", last.SocketCount)
	}
	for _, r := range rows[:len(rows)-1] {
		if r.Initiator == r.Receiver {
			t.Errorf("unaggregated self pair %s", r.Initiator)
		}
		if !r.InitiatorAA && !r.ReceiverAA {
			t.Errorf("non-A&A pair %s -> %s", r.Initiator, r.Receiver)
		}
	}
	out := RenderTable4(rows)
	if !strings.Contains(out, "A&A domain\titself") && !strings.Contains(out, "A&A domain") {
		t.Errorf("render missing self row:\n%s", out)
	}
}

// TestTable4Cut: a cut keeps the first top ranked pairs and then the
// self-aggregate row, and leaves the full rows it cut from untouched.
func TestTable4Cut(t *testing.T) {
	pre, post := fixtureDatasets()
	s := Lookup("table", "4")
	full := s.Rows(UnionAASet(pre, post), pre, post).([]PairRow)
	ranked, self := full[:len(full)-1], full[len(full)-1]
	if !self.SelfAggregate || len(ranked) < 2 {
		t.Fatalf("fixture gives %d ranked pairs, self row %+v", len(ranked), self)
	}
	before := fmt.Sprint(full)
	for top := 1; top <= len(ranked)+1; top++ {
		got := cutPairs(full, top)
		want := append(append([]PairRow{}, ranked[:min(top, len(ranked))]...), self)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("cut to %d: %+v, want %+v", top, got, want)
		}
		if fmt.Sprint(s.Cut(s.Rows(UnionAASet(pre, post), pre, post), top)) != fmt.Sprint(want) {
			t.Errorf("table 4 cut to %d differs from the cut of the full table", top)
		}
	}
	if fmt.Sprint(full) != before {
		t.Error("cutting modified the full rows")
	}
}

func TestTable5(t *testing.T) {
	pre, post := fixtureDatasets()
	res := Lookup("table", "5").Rows(UnionAASet(pre, post), pre, post).(Table5Result)
	// A&A sockets: pre has 5 (all but feed/pub-d... feed01 is non-A&A
	// receiver AND non-A&A chain; pub-d same) -> 4 pre + 3 post = 7.
	if res.AASockets != 7 {
		t.Errorf("AA sockets = %d", res.AASockets)
	}
	var ua, cookie Table5Row
	for _, r := range res.Sent {
		switch r.Item {
		case content.SentUserAgent:
			ua = r
		case content.SentCookie:
			cookie = r
		}
	}
	if ua.WSCount != 7 || ua.WSPct != 100.0 {
		t.Errorf("UA row = %+v", ua)
	}
	if cookie.WSCount != 2 {
		t.Errorf("cookie row = %+v", cookie)
	}
	if ua.HTTPAbs != 100 {
		t.Errorf("UA http = %d (benigncdn must be excluded)", ua.HTTPAbs)
	}
	// No-data rows: intercom pre sent 0 frames.
	if res.WSNoSent != 1 {
		t.Errorf("no-data sent = %d", res.WSNoSent)
	}
	out := RenderTable5(res)
	if !strings.Contains(out, "User Agent") || !strings.Contains(out, "No data") {
		t.Error("render incomplete")
	}
}

func TestFigure3(t *testing.T) {
	pre, post := fixtureDatasets()
	bins := Figure3Binned([]int{0, 10_000, 100_000}, pre, post)
	if len(bins) != 3 {
		t.Fatalf("bins = %v", bins)
	}
	// Bin 0 holds pub-a twice (both crawls), always with A&A sockets.
	if bins[0].PctAASites != 100 {
		t.Errorf("bin0 AA pct = %v", bins[0].PctAASites)
	}
	// pub-d (rank 700000) has only a non-A&A socket pre-patch.
	if bins[2].PctNonAASites <= 0 {
		t.Errorf("bin2 non-AA pct = %v", bins[2].PctNonAASites)
	}
	if bins[2].PctAASites != 0 {
		t.Errorf("bin2 AA pct = %v", bins[2].PctAASites)
	}
	if out := RenderFigure3(bins); !strings.Contains(out, "Rank bin") {
		t.Error("figure 3 render incomplete")
	}
}

func TestFigure4(t *testing.T) {
	pre, post := fixtureDatasets()
	ads := Figure4(10, pre, post)
	if len(ads) != 1 || ads[0].Caption != "Odd Trick To Fix Sagging Skin" {
		t.Errorf("ads = %+v", ads)
	}
	if out := RenderFigure4(ads); !strings.Contains(out, "Sagging Skin") {
		t.Error("figure 4 render incomplete")
	}
	if out := RenderFigure4(nil); !strings.Contains(out, "none observed") {
		t.Error("empty figure 4 render")
	}
}

func TestOverviewStats(t *testing.T) {
	pre, post := fixtureDatasets()
	o := ComputeOverview(pre, post)
	if o.Sockets != 9 {
		t.Errorf("sockets = %d", o.Sockets)
	}
	// 8 of 9 are cross-origin (pub-d self socket is not).
	if o.PctCrossOrigin < 88 || o.PctCrossOrigin > 89 {
		t.Errorf("cross origin = %v", o.PctCrossOrigin)
	}
	// Blocked socket chains: 1 (doubleclick) of 7 A&A-received.
	if o.PctAASocketChainsBlocked <= 0 || o.PctAASocketChainsBlocked > 20 {
		t.Errorf("socket chains blocked = %v", o.PctAASocketChainsBlocked)
	}
	// HTTP baseline: 60 of 100 doubleclick requests blockable.
	if o.PctAAHTTPChainsBlocked != 60 {
		t.Errorf("http chains blocked = %v", o.PctAAHTTPChainsBlocked)
	}
	if out := RenderOverview(o); !strings.Contains(out, "cross-origin") {
		t.Error("overview render incomplete")
	}
}

func TestChurn(t *testing.T) {
	pre, post := fixtureDatasets()
	ch := ComputeChurn(pre, post, UnionAASet(pre, post))
	has := func(list []string, dom string) bool {
		for _, d := range list {
			if d == dom {
				return true
			}
		}
		return false
	}
	if !has(ch.Disappeared, "doubleclick.net") {
		t.Errorf("doubleclick not in disappeared: %v", ch.Disappeared)
	}
	if !has(ch.Persisted, "zopim.com") || !has(ch.Persisted, "lockerdome.com") {
		t.Errorf("persisted = %v", ch.Persisted)
	}
	if out := RenderChurn(ch); !strings.Contains(out, "Disappeared") {
		t.Error("churn render incomplete")
	}
}

func TestDatasetJSONRoundTrip(t *testing.T) {
	pre, _ := fixtureDatasets()
	var buf bytes.Buffer
	if err := pre.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != pre.Name || len(back.Sockets) != len(pre.Sockets) || len(back.Sites) != len(pre.Sites) {
		t.Error("round trip lost data")
	}
	if back.Sockets[0].InitiatorDomain != pre.Sockets[0].InitiatorDomain {
		t.Error("socket fields lost")
	}
	if back.HTTPByDomain["doubleclick.net"].Requests != 100 {
		t.Error("http aggregate lost")
	}
}

func TestFigure1Static(t *testing.T) {
	evs := Figure1Timeline()
	if len(evs) < 8 {
		t.Errorf("timeline too short: %d", len(evs))
	}
	out := RenderFigure1()
	for _, want := range []string{"2012-05", "Chrome 58", "Pornhub"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
}
