package adblock

import (
	"repro/internal/devtools"
	"repro/internal/filterlist"
	"repro/internal/urlutil"
	"repro/internal/webrequest"
)

// SocketGuardBlocker models uBO-Extra (§2.3 of the paper): alongside
// ordinary webRequest blocking it implements browser.SocketGuard, a
// content-script wrapper around the WebSocket constructor. Because the
// wrapper runs inside the page it works even on browsers where the
// webRequest bug hides sockets from extensions — it was the community's
// stopgap during the five unpatched years.
type SocketGuardBlocker struct {
	*Blocker
}

// NewSocketGuard builds a blocker whose WebSocket decisions also run as
// a page-level guard. The underlying filter evaluation is shared.
//
//lint:allow unusedapi the paper's uBO-Extra mitigation (§2.3), kept as a model: browser's tests and the root BenchmarkAblationUBOExtra drive it
func NewSocketGuard(name string, style PatternStyle, lists ...*filterlist.List) *SocketGuardBlocker {
	return &SocketGuardBlocker{Blocker: New(name, style, lists...)}
}

// AllowSocket implements browser.SocketGuard: the socket URL is checked
// against the same rule group, as a WebSocket-typed request.
func (g *SocketGuardBlocker) AllowSocket(pageURL, socketURL string) (bool, string) {
	u, err := urlutil.Parse(socketURL)
	if err != nil {
		return true, ""
	}
	pageHost := ""
	if p, err := urlutil.Parse(pageURL); err == nil {
		pageHost = p.Host
	}
	d := g.group.Match(filterlist.Request{URL: u, Type: devtools.ResourceWebSocket, PageHost: pageHost})
	if !d.Blocked {
		return true, ""
	}
	return false, d.Rule.Raw
}

// FeatureBlocker disables a whole browser feature rather than matching
// URLs — the "block the WebSocket standard outright" strategy Snyder et
// al. measured in privacy extensions (the paper cites their finding that
// blockers disabled WebSockets 65% of the time). It cancels every
// WebSocket it can see and, as a guard, every one it cannot.
type FeatureBlocker struct {
	name string
}

// NewFeatureBlocker builds a block-all-WebSockets extension.
//
//lint:allow unusedapi the paper's disable-the-feature mitigation (Snyder et al.), kept as a model: browser's tests and the root BenchmarkAblationFeatureBlock drive it
func NewFeatureBlocker(name string) *FeatureBlocker {
	return &FeatureBlocker{name: name}
}

// Name implements browser.Extension.
func (f *FeatureBlocker) Name() string { return f.name }

// Install implements browser.Extension.
func (f *FeatureBlocker) Install(reg *webrequest.Registry) {
	reg.OnBeforeRequest(f.name,
		[]webrequest.MatchPattern{webrequest.MustParseMatchPattern("<all_urls>")},
		[]devtools.ResourceType{devtools.ResourceWebSocket},
		func(webrequest.Details) webrequest.BlockingResponse {
			return webrequest.BlockingResponse{Cancel: true, Rule: "feature:websocket"}
		})
}

// AllowSocket implements browser.SocketGuard: nothing gets through.
func (f *FeatureBlocker) AllowSocket(pageURL, socketURL string) (bool, string) {
	return false, "feature:websocket"
}
