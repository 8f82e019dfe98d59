package filterlist

import (
	"strings"
	"testing"

	"repro/internal/devtools"
	"repro/internal/urlutil"
)

// The linear oracle: the seed implementation's matching semantics, kept
// as straight-line rule-by-rule scans with none of the engine's
// machinery (no index, no prepared target). It lives in test code so
// the indexed engine always has a slow-but-obviously-correct twin and
// the shipping binaries carry one matcher. Three tests hold the engine
// to it: TestDifferentialEngineVsReference (generated rule corpora and
// URLs), TestCrawlDecisionsMatchLinear (every request of every
// inclusion tree of a real crawl over the generated lists) and
// FuzzMatchMatchesLinear (arbitrary rule text and URLs).
//
// Decision priority is the engine's contract — first match in (list
// order, rule insertion order) for both the block and the overriding
// exception — which the linear scans realize trivially. The seed's
// Blocked semantics are preserved exactly: a request is blocked iff
// some list's block rule matches and no list's exception matches.

// refMatch is List.Match by linear scan.
func (l *List) refMatch(req Request) Decision {
	var block *Rule
	for _, r := range l.blocks {
		if r.MatchesRequest(req) {
			block = r
			break
		}
	}
	if block == nil {
		return Decision{}
	}
	for _, ex := range l.exceptions {
		if ex.MatchesRequest(req) {
			return Decision{Blocked: false, Rule: block, Exception: ex, List: l.Name}
		}
	}
	return Decision{Blocked: true, Rule: block, List: l.Name}
}

// refMatch is Group.Match by linear scan: first blocking list wins,
// then every list's exceptions are consulted in order.
func (g *Group) refMatch(req Request) Decision {
	var block *Rule
	var blockList string
	for _, l := range g.Lists {
		for _, r := range l.blocks {
			if r.MatchesRequest(req) {
				block, blockList = r, l.Name
				break
			}
		}
		if block != nil {
			break
		}
	}
	if block == nil {
		return Decision{}
	}
	for _, l := range g.Lists {
		for _, ex := range l.exceptions {
			if ex.MatchesRequest(req) {
				return Decision{Blocked: false, Rule: block, Exception: ex, List: l.Name}
			}
		}
	}
	return Decision{Blocked: true, Rule: block, List: blockList}
}

// fuzzTypes are the resource types FuzzMatchMatchesLinear picks from.
var fuzzTypes = []devtools.ResourceType{
	devtools.ResourceScript, devtools.ResourceImage, devtools.ResourceStylesheet,
	devtools.ResourceXHR, devtools.ResourceSubFrame, devtools.ResourceDocument,
	devtools.ResourceWebSocket, devtools.ResourceOther,
}

// FuzzMatchMatchesLinear feeds the rule parser arbitrary list text and
// the matcher arbitrary requests: Parse must neither panic nor hang, and
// the indexed engine must return the linear oracle's full Decision,
// through a two-list group (the text's lines dealt alternately, so
// cross-list block and exception priority is in play) and through each
// list alone. The seeds are the rule shapes and probes of
// TestEasyListRealWorldShapes plus one of every anchor and option.
func FuzzMatchMatchesLinear(f *testing.F) {
	realWorld := "&ad_box_\n-banner-ad-\n||33across.com^$third-party\n||hotjar.com^$third-party\n" +
		"@@||ads.example.com/adsense/$script,domain=ask.example\n||lockerdome.com^$third-party"
	f.Add(realWorld, "http://cdn.33across.com/tag.js", uint8(0), "pub.example")
	f.Add(realWorld, "http://pub.example/x?z=1&ad_box_top", uint8(0), "pub.example")
	f.Add(realWorld, "http://cdn1.lockerdome.com/img/ad1.png", uint8(1), "lockerdome.com")
	f.Add(realWorld, "http://ads.example.com/adsense/show.js", uint8(0), "www.ask.example")
	f.Add("! comment\n[Adblock Plus 2.0]\nexample.com##.ad\n||wsnet.example^$websocket\n|ws://a.\n.gif|\n/x/*/y^\n@@/x/ok/y^$~image",
		"ws://a.wsnet.example:8080/x/ok/y", uint8(6), "")
	f.Add("||a.example^$domain=p.example|~bad.p.example\n||a.example^$~third-party\n*$script\n|\n||", "https://A.example/B.GIF?q=1", uint8(3), "bad.p.example")
	f.Fuzz(func(t *testing.T, ruleText, rawURL string, typ uint8, pageHost string) {
		u, err := urlutil.Parse(rawURL)
		if err != nil {
			t.Skip()
		}
		var dealt [2]strings.Builder
		for i, line := range strings.Split(ruleText, "\n") {
			dealt[i%2].WriteString(line)
			dealt[i%2].WriteByte('\n')
		}
		g := NewGroup(Parse("easylist", dealt[0].String()), Parse("easyprivacy", dealt[1].String()))
		request := Request{URL: u, Type: fuzzTypes[int(typ)%len(fuzzTypes)], PageHost: pageHost}
		if _, err := checkAgainstLinear(g, request); err != nil {
			t.Fatalf("rules %q: %v", ruleText, err)
		}
	})
}
