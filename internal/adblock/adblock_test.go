package adblock

import (
	"strings"
	"testing"

	"repro/internal/devtools"
	"repro/internal/filterlist"
	"repro/internal/urlutil"
	"repro/internal/webrequest"
)

func testBlocker(style PatternStyle) *Blocker {
	lists := filterlist.Parse("easylist", `
||adnet.example^$third-party
||tracker.example^
||wsnet.example^$websocket
`)
	return New("test-blocker", style, lists)
}

func details(url string, typ devtools.ResourceType) webrequest.Details {
	return webrequest.Details{
		RequestID: "R1", URL: url, Type: typ,
		FrameID: "F1", FirstPartyURL: "http://pub.example/",
	}
}

func TestBlockerCancelsListedResources(t *testing.T) {
	b := testBlocker(AllURLs)
	reg := webrequest.NewRegistry(true)
	b.Install(reg)

	if v := reg.Dispatch(details("http://cdn.adnet.example/ad.js", devtools.ResourceScript)); !v.Cancelled {
		t.Error("listed script not blocked")
	}
	if v := reg.Dispatch(details("http://benign.example/lib.js", devtools.ResourceScript)); v.Cancelled {
		t.Error("benign script blocked")
	}
	if v := reg.Dispatch(details("ws://wsnet.example/s", devtools.ResourceWebSocket)); !v.Cancelled {
		t.Error("$websocket rule not applied on patched browser")
	}
	if b.BlockedCount() != 2 {
		t.Errorf("blocked count = %d", b.BlockedCount())
	}
	rules := b.TopRules()
	if rules["||adnet.example^$third-party"] != 1 {
		t.Errorf("rule stats = %v", rules)
	}
}

func TestBlockerNeverCancelsDocuments(t *testing.T) {
	b := testBlocker(AllURLs)
	reg := webrequest.NewRegistry(true)
	b.Install(reg)
	if v := reg.Dispatch(details("http://tracker.example/", devtools.ResourceDocument)); v.Cancelled {
		t.Error("top-level document blocked")
	}
}

func TestHTTPOnlyStyleMissesWebSockets(t *testing.T) {
	b := testBlocker(HTTPOnlyPatterns)
	reg := webrequest.NewRegistry(true) // patched browser
	b.Install(reg)
	if v := reg.Dispatch(details("ws://wsnet.example/s", devtools.ResourceWebSocket)); v.Cancelled {
		t.Error("http-only patterns cancelled a ws:// request")
	}
	// HTTP still blocked.
	if v := reg.Dispatch(details("http://tracker.example/t.gif", devtools.ResourceImage)); !v.Cancelled {
		t.Error("http tracker not blocked")
	}
}

func TestWRBDefeatsEvenAllURLs(t *testing.T) {
	b := testBlocker(AllURLs)
	reg := webrequest.NewRegistry(false) // pre-patch browser
	b.Install(reg)
	if v := reg.Dispatch(details("ws://wsnet.example/s", devtools.ResourceWebSocket)); v.Cancelled || v.Dispatched {
		t.Errorf("WRB bypassed: %+v", v)
	}
	if b.BlockedCount() != 0 {
		t.Error("blocker saw a websocket through the WRB")
	}
}

// TestDispatchUsesParsedURL: the parsed URLs a Details may carry are
// the strings' own parse and nothing more — with them or without, every
// rule shape of filterlist's TestEasyListRealWorldShapes reaches the
// same verdict on every probe.
func TestDispatchUsesParsedURL(t *testing.T) {
	rules := []string{
		"&ad_box_",
		"-banner-ad-",
		"||33across.com^$third-party",
		"||hotjar.com^$third-party",
		"@@||ads.example.com/adsense/$script,domain=ask.example",
		"||lockerdome.com^$third-party",
	}
	probes := []struct {
		url, firstParty string
		typ             devtools.ResourceType
	}{
		{"http://cdn.33across.com/tag.js", "http://pub.example/", devtools.ResourceScript},
		{"http://pub.example/x?z=1&ad_box_top", "http://pub.example/page/2", devtools.ResourceScript},
		{"http://cdn.example/img/top-banner-ad-2.gif", "http://pub.example/", devtools.ResourceImage},
		{"http://cdn1.lockerdome.com/img/ad1.png", "http://lockerdome.com/", devtools.ResourceImage},
		{"http://cdn1.lockerdome.com/img/ad1.png", "http://pub.example/", devtools.ResourceImage},
		{"http://ads.example.com/adsense/show.js", "http://ask.example/", devtools.ResourceScript},
		{"http://static.hotjar.com/c/hotjar.js", "HTTP://Pub.Example:8080/a%20b#frag", devtools.ResourceScript},
		{"ws://ws.hotjar.com/api/v1/client/ws", "http://pub.example/", devtools.ResourceWebSocket},
		{"http://hotjar.com/", "http://pub.example/", devtools.ResourceDocument},
		{"http://static.hotjar.com/c/hotjar.js", "not a url", devtools.ResourceScript},
		{"::not a url::", "http://pub.example/", devtools.ResourceScript},
	}
	cancelled := 0
	for _, all := range [][]string{rules[0:1], rules[1:2], rules[2:3], rules[3:4], rules[4:5], rules[5:6], rules} {
		for _, patched := range []bool{true, false} {
			reg := webrequest.NewRegistry(patched)
			New("blocker", AllURLs, filterlist.Parse("easylist", strings.Join(all, "\n"))).Install(reg)
			for _, p := range probes {
				bare := webrequest.Details{RequestID: "R1", URL: p.url, Type: p.typ, FrameID: "F1", FirstPartyURL: p.firstParty}
				carried := bare
				carried.Parsed, _ = urlutil.Parse(p.url)
				carried.FirstParty, _ = urlutil.Parse(p.firstParty)
				got, want := reg.Dispatch(carried), reg.Dispatch(bare)
				if got != want {
					t.Errorf("rules %q, %s from %s: verdict %+v with parsed URLs, %+v without", all, p.url, p.firstParty, got, want)
				}
				if want.Cancelled {
					cancelled++
				}
			}
		}
	}
	if cancelled == 0 {
		t.Error("no probe was cancelled: the comparison proved nothing")
	}
}
