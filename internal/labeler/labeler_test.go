package labeler

import (
	"testing"

	"repro/internal/devtools"
	"repro/internal/filterlist"
	"repro/internal/inclusion"
)

func testLists() (*filterlist.List, *filterlist.List) {
	easylist := filterlist.Parse("easylist", `
||adnet.example^$third-party
||fullad.example^
`)
	easyprivacy := filterlist.Parse("easyprivacy", `
||partial.example/track/
`)
	return easylist, easyprivacy
}

// tally is a(d)/n(d) summed the way internal/analysis sums TagTree
// deltas: per mapped 2nd-level domain.
type tally struct{ aa, non map[string]int }

func newTally() tally { return tally{aa: map[string]int{}, non: map[string]int{}} }

// observe credits one resource observation to the host's mapped domain.
func (c tally) observe(l *Labeler, host string, isAA bool) {
	d := l.MapDomain(host)
	if isAA {
		c.aa[d]++
	} else {
		c.non[d]++
	}
}

// domains is D′ at the given threshold, as a set.
func (c tally) domains(threshold float64) map[string]bool {
	out := map[string]bool{}
	for _, d := range Domains(c.aa, c.non, threshold) {
		out[d] = true
	}
	return out
}

func TestThresholdRule(t *testing.T) {
	el, ep := testLists()
	l := New(el, ep)
	c := newTally()

	// adnet: labeled on every observation -> in D'.
	for i := 0; i < 10; i++ {
		c.observe(l, "cdn.adnet.example", true)
	}
	// partial: 2 A&A of 12 observations (16.7%) -> in D'.
	for i := 0; i < 10; i++ {
		c.observe(l, "partial.example", false)
	}
	c.observe(l, "partial.example", true)
	c.observe(l, "partial.example", true)
	// rare: 1 A&A of 25 (4%) -> out.
	for i := 0; i < 24; i++ {
		c.observe(l, "rare.example", false)
	}
	c.observe(l, "rare.example", true)
	// clean: never labeled -> out.
	c.observe(l, "clean.example", false)

	d := c.domains(Threshold)
	if !d["adnet.example"] {
		t.Error("adnet.example missing from D'")
	}
	if !d["partial.example"] {
		t.Error("partial.example (16.7%) missing from D'")
	}
	if d["rare.example"] {
		t.Error("rare.example (4%) wrongly in D'")
	}
	if d["clean.example"] {
		t.Error("clean.example wrongly in D'")
	}

	// Threshold ablation: at 0%, any single A&A observation suffices.
	d0 := c.domains(0.0001)
	if !d0["rare.example"] {
		t.Error("rare.example missing at near-zero threshold")
	}
	// At 50%, partial.example falls out.
	d50 := c.domains(0.5)
	if d50["partial.example"] {
		t.Error("partial.example present at 50% threshold")
	}
}

func TestSecondLevelAggregation(t *testing.T) {
	el, ep := testLists()
	l := New(el, ep)
	c := newTally()
	c.observe(l, "x.adnet.example", true)
	c.observe(l, "y.adnet.example", true)
	if aa, non := c.aa["adnet.example"], c.non["adnet.example"]; aa != 2 || non != 0 {
		t.Errorf("counts = (%d, %d), want (2, 0)", aa, non)
	}
	if got := l.MapDomain("stats.bbc.co.uk"); got != "bbc.co.uk" {
		t.Errorf("multi-label suffix: MapDomain = %q, want bbc.co.uk", got)
	}
}

func TestCDNMapping(t *testing.T) {
	el, ep := testLists()
	l := New(el, ep)
	l.SetCDNMap(map[string]string{"d10lpsik1i8c69.cloudfront.net": "luckyorange.com"})
	if got := l.MapDomain("d10lpsik1i8c69.cloudfront.net"); got != "luckyorange.com" {
		t.Errorf("MapDomain = %q", got)
	}
	if got := l.MapDomain("other.cloudfront.net"); got != "cloudfront.net" {
		t.Errorf("unmapped CDN host = %q", got)
	}
	c := newTally()
	c.observe(l, "d10lpsik1i8c69.cloudfront.net", true)
	if c.aa["luckyorange.com"] != 1 {
		t.Error("mapped observation not credited to company")
	}
}

func buildTree(t *testing.T) *inclusion.Tree {
	t.Helper()
	tr := devtools.NewTrace()
	events := []devtools.Event{
		devtools.FrameNavigated{FrameID: "F1", URL: "http://pub.example/", Initiator: devtools.ParserInitiator("F1")},
		devtools.ScriptParsed{ScriptID: "S1", URL: "http://pub.example/app.js", FrameID: "F1", Initiator: devtools.ParserInitiator("F1")},
		// A&A script request (matches easylist).
		devtools.RequestWillBeSent{RequestID: "R1", URL: "http://cdn.adnet.example/w.js", Type: devtools.ResourceScript, FrameID: "F1", Initiator: devtools.ScriptInitiator("S1"), FirstPartyURL: "http://pub.example/"},
		devtools.ScriptParsed{ScriptID: "S2", URL: "http://cdn.adnet.example/w.js", FrameID: "F1", Initiator: devtools.ScriptInitiator("S1")},
		// Clean request from the A&A script.
		devtools.RequestWillBeSent{RequestID: "R2", URL: "http://benign.example/lib.js", Type: devtools.ResourceScript, FrameID: "F1", Initiator: devtools.ScriptInitiator("S2"), FirstPartyURL: "http://pub.example/"},
		// Opaque CDN host right after the A&A request.
		devtools.RequestWillBeSent{RequestID: "R3", URL: "http://dabc123.cloudfront.net/t.js", Type: devtools.ResourceScript, FrameID: "F1", Initiator: devtools.ScriptInitiator("S1"), FirstPartyURL: "http://pub.example/"},
		// Socket from the A&A script.
		devtools.WebSocketCreated{SocketID: "W1", URL: "ws://partial.example/ws", FrameID: "F1", Initiator: devtools.ScriptInitiator("S2"), FirstPartyURL: "http://pub.example/"},
	}
	for _, ev := range events {
		tr.Record(ev)
	}
	tree, err := inclusion.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestObserveTree(t *testing.T) {
	el, ep := testLists()
	l := New(el, ep)
	aa, non, _ := l.TagTree(buildTree(t))
	if aa["adnet.example"] != 1 {
		t.Errorf("adnet a(d) = %d", aa["adnet.example"])
	}
	if non["benign.example"] != 1 {
		t.Errorf("benign n(d) = %d", non["benign.example"])
	}
}

func TestCDNAdjacencyCandidates(t *testing.T) {
	el, ep := testLists()
	l := New(el, ep)
	// In buildTree's page R2 (benign) sits between R1 (A&A) and R3
	// (CDN): adjacency is order-sensitive, so no candidate there.
	if _, _, cdn := l.TagTree(buildTree(t)); len(cdn) != 0 {
		t.Errorf("non-adjacent cloudfront host flagged: %v", cdn)
	}
	// A direct sequence, A&A then CDN, is one.
	tr := devtools.NewTrace()
	tr.Record(devtools.FrameNavigated{FrameID: "F1", URL: "http://pub.example/", Initiator: devtools.ParserInitiator("F1")})
	tr.Record(devtools.RequestWillBeSent{RequestID: "R1", URL: "http://cdn.adnet.example/w.js", Type: devtools.ResourceScript, FrameID: "F1", Initiator: devtools.ParserInitiator("F1"), FirstPartyURL: "http://pub.example/"})
	tr.Record(devtools.RequestWillBeSent{RequestID: "R2", URL: "http://dxyz9.cloudfront.net/t.js", Type: devtools.ResourceScript, FrameID: "F1", Initiator: devtools.ParserInitiator("F1"), FirstPartyURL: "http://pub.example/"})
	tree2, err := inclusion.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	_, _, cdn := l.TagTree(tree2)
	if cdn["dxyz9.cloudfront.net"] == 0 {
		t.Errorf("adjacent cloudfront host not flagged; candidates = %v", cdn)
	}
}

func TestMatchChain(t *testing.T) {
	el, ep := testLists()
	l := New(el, ep)
	tree := buildTree(t)
	ws := tree.Sockets()[0]
	// The chain passes through cdn.adnet.example/w.js, which easylist
	// blocks.
	if !l.MatchChain(ws.Chain(), "pub.example") {
		t.Error("chain through blocked script not flagged")
	}
	// A chain of clean URLs is not flagged.
	reqs := tree.Requests()
	var clean *inclusion.Node
	for _, r := range reqs {
		if r.URL == "http://benign.example/lib.js" {
			clean = r
		}
	}
	// benign.example chain passes through adnet's script too -> blocked.
	if !l.MatchChain(clean.Chain(), "pub.example") {
		t.Error("chain through A&A parent script not flagged")
	}
}
