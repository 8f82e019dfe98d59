package adblock

import (
	"testing"

	"repro/internal/devtools"
	"repro/internal/filterlist"
	"repro/internal/webrequest"
)

func TestSocketGuardVetoesListedSockets(t *testing.T) {
	g := NewSocketGuard("ubo-extra", AllURLs,
		filterlist.Parse("rules", "||wsnet.example^$websocket\n||adnet.example^"))

	allow, rule := g.AllowSocket("http://pub.example/", "ws://wsnet.example/s")
	if allow {
		t.Error("listed socket allowed by guard")
	}
	if rule == "" {
		t.Error("veto carries no rule")
	}
	allow, _ = g.AllowSocket("http://pub.example/", "ws://benign.example/s")
	if !allow {
		t.Error("benign socket vetoed")
	}
	// Domain-anchored non-websocket rules also apply to sockets.
	if allow, _ := g.AllowSocket("http://pub.example/", "ws://adnet.example/s"); allow {
		t.Error("domain rule not applied to socket")
	}
	// Unparsable URLs pass through (fail open, like content scripts).
	if allow, _ := g.AllowSocket("http://pub.example/", "::not-a-url::"); !allow {
		t.Error("unparsable URL vetoed")
	}
}

func TestSocketGuardStillBlocksHTTPViaWebRequest(t *testing.T) {
	g := NewSocketGuard("ubo-extra", AllURLs,
		filterlist.Parse("rules", "||adnet.example^"))
	// The embedded Blocker still works through the webRequest path.
	if g.Name() != "ubo-extra" {
		t.Error("name lost")
	}
	reg := webrequest.NewRegistry(true)
	g.Install(reg)
	if v := reg.Dispatch(details("http://adnet.example/ad.js", devtools.ResourceScript)); !v.Cancelled {
		t.Error("embedded blocker let a listed HTTP request through")
	}
}

func TestFeatureBlockerBlocksEverything(t *testing.T) {
	f := NewFeatureBlocker("no-websockets")
	if allow, rule := f.AllowSocket("http://pub.example/", "ws://anything.example/s"); allow || rule != "feature:websocket" {
		t.Error("feature blocker allowed a socket")
	}
}
