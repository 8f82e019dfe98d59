package webrequest

import (
	"testing"
	"testing/quick"

	"repro/internal/devtools"
	"repro/internal/urlutil"
)

func TestParseMatchPattern(t *testing.T) {
	valid := []string{
		"http://*/*", "https://*/*", "ws://*/*", "wss://*/*",
		"*://*/*", "<all_urls>",
		"http://example.com/", "http://*.example.com/path/*",
	}
	for _, raw := range valid {
		if _, err := ParseMatchPattern(raw); err != nil {
			t.Errorf("ParseMatchPattern(%q): %v", raw, err)
		}
	}
	invalid := []string{
		"", "example.com/*", "ftp://*/*", "http://*/",
		"http://ex*ample.com/*", "http://example.com",
	}
	for _, raw := range invalid {
		if raw == "http://*/" {
			continue // actually valid: host *, path /
		}
		if _, err := ParseMatchPattern(raw); err == nil {
			t.Errorf("ParseMatchPattern(%q) accepted, want error", raw)
		}
	}
}

func TestMatchPatternSchemes(t *testing.T) {
	tests := []struct {
		pattern, url string
		want         bool
	}{
		// The Franken et al. root cause: http/https patterns never
		// match ws:// URLs.
		{"http://*/*", "ws://adnet.example/data.ws", false},
		{"https://*/*", "wss://adnet.example/data.ws", false},
		{"*://*/*", "ws://adnet.example/data.ws", false}, // '*' = http|https only
		{"ws://*/*", "ws://adnet.example/data.ws", true},
		{"wss://*/*", "wss://adnet.example/data.ws", true},
		{"<all_urls>", "ws://adnet.example/data.ws", true},
		{"<all_urls>", "https://pub.example/", true},
		{"http://*/*", "http://pub.example/x", true},
		{"*://*/*", "https://pub.example/x", true},
		{"ws://*/*", "http://pub.example/x", false},
	}
	for _, tc := range tests {
		p := MustParseMatchPattern(tc.pattern)
		u := parseURL(t, tc.url)
		if got := p.Matches(u); got != tc.want {
			t.Errorf("%q.Matches(%q) = %v, want %v", tc.pattern, tc.url, got, tc.want)
		}
	}
}

func TestMatchPatternHosts(t *testing.T) {
	tests := []struct {
		pattern, url string
		want         bool
	}{
		{"http://example.com/*", "http://example.com/a", true},
		{"http://example.com/*", "http://sub.example.com/a", false},
		{"http://*.example.com/*", "http://sub.example.com/a", true},
		{"http://*.example.com/*", "http://example.com/a", true},
		{"http://*.example.com/*", "http://badexample.com/a", false},
	}
	for _, tc := range tests {
		p := MustParseMatchPattern(tc.pattern)
		if got := p.Matches(parseURL(t, tc.url)); got != tc.want {
			t.Errorf("%q.Matches(%q) = %v, want %v", tc.pattern, tc.url, got, tc.want)
		}
	}
}

func TestMatchPatternPaths(t *testing.T) {
	tests := []struct {
		pattern, url string
		want         bool
	}{
		{"http://h.example/ads/*", "http://h.example/ads/banner.js", true},
		{"http://h.example/ads/*", "http://h.example/content/x", false},
		{"http://h.example/*.js", "http://h.example/lib/app.js", true},
		{"http://h.example/*.js", "http://h.example/lib/app.css", false},
		{"http://h.example/", "http://h.example/", true},
		{"http://h.example/", "http://h.example/x", false},
		{"http://h.example/*x*y*", "http://h.example/axbycz", true},
		{"http://h.example/*x*y*", "http://h.example/aybxc", false},
	}
	for _, tc := range tests {
		p := MustParseMatchPattern(tc.pattern)
		if got := p.Matches(parseURL(t, tc.url)); got != tc.want {
			t.Errorf("%q.Matches(%q) = %v, want %v", tc.pattern, tc.url, got, tc.want)
		}
	}
}

func TestGlobMatchProperty(t *testing.T) {
	// A pattern equal to the string always matches; "*" matches
	// anything; prefix+"*" matches any extension of prefix.
	f := func(s, suffix string) bool {
		if !globMatch(s, s) {
			return false
		}
		if !globMatch("*", s) {
			return false
		}
		return globMatch(s+"*", s+suffix)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func details(url string, typ devtools.ResourceType) Details {
	return Details{
		RequestID:     "R1",
		URL:           url,
		Type:          typ,
		FrameID:       "F1",
		FirstPartyURL: "http://pub.example/",
	}
}

// blockAll returns a listener that cancels everything it sees and counts
// invocations.
func blockAll(count *int) Listener {
	return func(Details) BlockingResponse {
		*count++
		return BlockingResponse{Cancel: true, Rule: "||*"}
	}
}

func TestWRBBugSuppressesWebSocketDispatch(t *testing.T) {
	// Pre-Chrome-58: WebSocket requests never reach listeners even with
	// <all_urls> patterns.
	reg := NewRegistry(false)
	calls := 0
	reg.OnBeforeRequest("adblock", []MatchPattern{MustParseMatchPattern("<all_urls>")}, nil, blockAll(&calls))

	v := reg.Dispatch(details("ws://adnet.example/data.ws", devtools.ResourceWebSocket))
	if v.Dispatched || v.Cancelled {
		t.Errorf("WRB: verdict = %+v, want undisstched/uncancelled", v)
	}
	if calls != 0 {
		t.Errorf("listener called %d times under WRB", calls)
	}

	// HTTP requests still dispatch and get blocked.
	v = reg.Dispatch(details("http://adnet.example/ad.js", devtools.ResourceScript))
	if !v.Dispatched || !v.Cancelled || v.Extension != "adblock" {
		t.Errorf("HTTP verdict = %+v", v)
	}
}

func TestPatchedBrowserDispatchesWebSockets(t *testing.T) {
	reg := NewRegistry(true)
	calls := 0
	reg.OnBeforeRequest("adblock", []MatchPattern{
		MustParseMatchPattern("ws://*/*"),
		MustParseMatchPattern("wss://*/*"),
	}, nil, blockAll(&calls))

	v := reg.Dispatch(details("ws://adnet.example/data.ws", devtools.ResourceWebSocket))
	if !v.Dispatched || !v.Cancelled {
		t.Errorf("patched verdict = %+v", v)
	}
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
}

// TestPatchedBrowserWithHTTPOnlyPatterns reproduces the Franken et al.
// finding: even on a patched browser, an extension registered only for
// http/https patterns cannot see WebSocket connections.
func TestPatchedBrowserWithHTTPOnlyPatterns(t *testing.T) {
	reg := NewRegistry(true)
	calls := 0
	reg.OnBeforeRequest("naive-blocker", []MatchPattern{
		MustParseMatchPattern("http://*/*"),
		MustParseMatchPattern("https://*/*"),
	}, nil, blockAll(&calls))

	v := reg.Dispatch(details("ws://adnet.example/data.ws", devtools.ResourceWebSocket))
	if v.Cancelled {
		t.Error("http-only patterns blocked a ws:// URL")
	}
	if !v.Dispatched {
		t.Error("request should have been dispatched (browser is patched)")
	}
	if calls != 0 {
		t.Errorf("listener invoked %d times for non-matching pattern", calls)
	}
}

func TestTypeFilter(t *testing.T) {
	reg := NewRegistry(true)
	calls := 0
	reg.OnBeforeRequest("img-only", []MatchPattern{MustParseMatchPattern("<all_urls>")},
		[]devtools.ResourceType{devtools.ResourceImage}, blockAll(&calls))

	if v := reg.Dispatch(details("http://x.example/a.js", devtools.ResourceScript)); v.Cancelled {
		t.Error("script blocked by image-only listener")
	}
	if v := reg.Dispatch(details("http://x.example/a.gif", devtools.ResourceImage)); !v.Cancelled {
		t.Error("image not blocked by image-only listener")
	}
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
}

func TestFirstCancellingListenerWins(t *testing.T) {
	reg := NewRegistry(true)
	order := []string{}
	reg.OnBeforeRequest("allow", []MatchPattern{MustParseMatchPattern("<all_urls>")}, nil, func(Details) BlockingResponse {
		order = append(order, "allow")
		return BlockingResponse{}
	})
	reg.OnBeforeRequest("block-1", []MatchPattern{MustParseMatchPattern("<all_urls>")}, nil, func(Details) BlockingResponse {
		order = append(order, "block-1")
		return BlockingResponse{Cancel: true, Rule: "r1"}
	})
	reg.OnBeforeRequest("block-2", []MatchPattern{MustParseMatchPattern("<all_urls>")}, nil, func(Details) BlockingResponse {
		order = append(order, "block-2")
		return BlockingResponse{Cancel: true, Rule: "r2"}
	})
	v := reg.Dispatch(details("http://x.example/", devtools.ResourceDocument))
	if !v.Cancelled || v.Extension != "block-1" || v.Rule != "r1" {
		t.Errorf("verdict = %+v", v)
	}
	if len(order) != 2 || order[1] != "block-1" {
		t.Errorf("order = %v (block-2 should not run)", order)
	}
}

func TestEmptyPatternsMatchEverything(t *testing.T) {
	reg := NewRegistry(true)
	calls := 0
	reg.OnBeforeRequest("all", nil, nil, blockAll(&calls))
	if v := reg.Dispatch(details("ws://x.example/s", devtools.ResourceWebSocket)); !v.Cancelled {
		t.Error("empty pattern list should match all URLs")
	}
	if len(reg.regs) != 1 {
		t.Error("listener count")
	}
}

// parseURL is urlutil.Parse for a test's URL literals: a malformed one
// fails the test.
func parseURL(tb testing.TB, raw string) *urlutil.URL {
	tb.Helper()
	u, err := urlutil.Parse(raw)
	if err != nil {
		tb.Fatal(err)
	}
	return u
}
