package filterlist

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/devtools"
	"repro/internal/urlutil"
)

func req(rawURL string, typ devtools.ResourceType, pageHost string) Request {
	return Request{URL: mustParse(rawURL), Type: typ, PageHost: pageHost}
}

func mustRule(t *testing.T, line string) *Rule {
	t.Helper()
	r, err := ParseRule(line)
	if err != nil {
		t.Fatalf("ParseRule(%q): %v", line, err)
	}
	return r
}

func TestDomainAnchorMatching(t *testing.T) {
	r := mustRule(t, "||doubleclick.net^")
	tests := []struct {
		url  string
		want bool
	}{
		{"http://doubleclick.net/ad.js", true},
		{"http://x.doubleclick.net/ad.js", true},
		{"https://y.doubleclick.net/", true},
		{"ws://stats.doubleclick.net/sock", true},
		{"http://notdoubleclick.net/ad.js", false},
		{"http://doubleclick.net.evil.com/", false},
		{"http://pub.example/doubleclick.net/x", false},
		{"http://doubleclick.net", true}, // '^' matches end of URL... path normalized to /
	}
	for _, tc := range tests {
		got := r.MatchesRequest(req(tc.url, devtools.ResourceScript, "pub.example"))
		if got != tc.want {
			t.Errorf("||doubleclick.net^ vs %q = %v, want %v", tc.url, got, tc.want)
		}
	}
}

func TestSeparatorSemantics(t *testing.T) {
	r := mustRule(t, "||ads.example^banner")
	if !r.MatchesURL(mustParse("http://ads.example/banner")) {
		t.Error("'^' should match '/'")
	}
	if r.MatchesURL(mustParse("http://ads.example-banner.com/")) {
		t.Error("'^' must not match '-'")
	}
	end := mustRule(t, "||ads.example/path^")
	if !end.MatchesURL(mustParse("http://ads.example/path")) {
		t.Error("trailing '^' should match end of URL")
	}
	if !end.MatchesURL(mustParse("http://ads.example/path?x=1")) {
		t.Error("trailing '^' should match '?'")
	}
	if end.MatchesURL(mustParse("http://ads.example/pathology")) {
		t.Error("trailing '^' must not match a letter")
	}
}

func TestWildcardMatching(t *testing.T) {
	r := mustRule(t, "/banner/*/img^")
	if !r.MatchesURL(mustParse("http://x.example/banner/300x250/img?x=1")) {
		t.Error("wildcard rule should match")
	}
	if r.MatchesURL(mustParse("http://x.example/banner/img")) {
		t.Error("wildcard requires intermediate segment")
	}
}

func TestAnchors(t *testing.T) {
	start := mustRule(t, "|http://ads.")
	if !start.MatchesURL(mustParse("http://ads.example/x")) {
		t.Error("start anchor failed")
	}
	if start.MatchesURL(mustParse("http://pub.example/?u=http://ads.example")) {
		t.Error("start anchor matched mid-URL")
	}
	end := mustRule(t, ".swf|")
	if !end.MatchesURL(mustParse("http://pub.example/movie.swf")) {
		t.Error("end anchor failed")
	}
	if end.MatchesURL(mustParse("http://pub.example/movie.swf?x=1")) {
		t.Error("end anchor matched non-final position")
	}
}

func TestSubstringRule(t *testing.T) {
	r := mustRule(t, "/tracking/pixel")
	if !r.MatchesURL(mustParse("http://any.example/v2/tracking/pixel.gif")) {
		t.Error("substring rule failed")
	}
	if r.MatchesURL(mustParse("http://any.example/tracking-pixel")) {
		t.Error("substring rule over-matched")
	}
}

func TestTypeOptions(t *testing.T) {
	r := mustRule(t, "||tracker.example^$script,image")
	if !r.MatchesRequest(req("http://tracker.example/t.js", devtools.ResourceScript, "pub.example")) {
		t.Error("script should match")
	}
	if !r.MatchesRequest(req("http://tracker.example/p.gif", devtools.ResourceImage, "pub.example")) {
		t.Error("image should match")
	}
	if r.MatchesRequest(req("ws://tracker.example/s", devtools.ResourceWebSocket, "pub.example")) {
		t.Error("websocket must not match a script,image rule")
	}
	inv := mustRule(t, "||tracker.example^$~image")
	if inv.MatchesRequest(req("http://tracker.example/p.gif", devtools.ResourceImage, "pub.example")) {
		t.Error("~image rule matched an image")
	}
	if !inv.MatchesRequest(req("http://tracker.example/t.js", devtools.ResourceScript, "pub.example")) {
		t.Error("~image rule should match a script")
	}
}

func TestWebSocketOption(t *testing.T) {
	// The post-2016 EasyList mitigation syntax: $websocket rules.
	r := mustRule(t, "||adnet.example^$websocket")
	if !r.MatchesRequest(req("ws://adnet.example/data.ws", devtools.ResourceWebSocket, "pub.example")) {
		t.Error("$websocket rule should match ws request")
	}
	if r.MatchesRequest(req("http://adnet.example/ad.js", devtools.ResourceScript, "pub.example")) {
		t.Error("$websocket rule must not match scripts")
	}
}

func TestThirdPartyOption(t *testing.T) {
	r := mustRule(t, "||widget.example^$third-party")
	if !r.MatchesRequest(req("http://widget.example/w.js", devtools.ResourceScript, "pub.example")) {
		t.Error("third-party request should match")
	}
	if r.MatchesRequest(req("http://widget.example/w.js", devtools.ResourceScript, "cdn.widget.example")) {
		t.Error("first-party request must not match $third-party rule")
	}
	fp := mustRule(t, "||widget.example^$~third-party")
	if fp.MatchesRequest(req("http://widget.example/w.js", devtools.ResourceScript, "pub.example")) {
		t.Error("third-party request must not match $~third-party rule")
	}
}

func TestDomainOption(t *testing.T) {
	r := mustRule(t, "||player.example^$domain=video.example|~news.video.example")
	if !r.MatchesRequest(req("http://player.example/p.js", devtools.ResourceScript, "video.example")) {
		t.Error("included domain should match")
	}
	if !r.MatchesRequest(req("http://player.example/p.js", devtools.ResourceScript, "sub.video.example")) {
		t.Error("subdomain of included domain should match")
	}
	if r.MatchesRequest(req("http://player.example/p.js", devtools.ResourceScript, "news.video.example")) {
		t.Error("excluded subdomain must not match")
	}
	if r.MatchesRequest(req("http://player.example/p.js", devtools.ResourceScript, "other.example")) {
		t.Error("unrelated domain must not match")
	}
}

func TestUnsupportedOptionSkipped(t *testing.T) {
	if _, err := ParseRule("||x.example^$popup"); err == nil {
		t.Error("unsupported option accepted")
	}
	l := Parse("test", "||a.example^\n||x.example^$popup\n||b.example^")
	if l.Len() != 2 || l.Skipped != 1 {
		t.Errorf("len=%d skipped=%d", l.Len(), l.Skipped)
	}
}

func TestCommentAndCosmeticLinesSkipped(t *testing.T) {
	text := `[Adblock Plus 2.0]
! Title: EasyList-like
||ads.example^
example.com##.ad-banner
#@#.sponsored
@@||goodcdn.example^$script

||tracker.example^$third-party`
	l := Parse("easylist", text)
	if l.Len() != 3 {
		t.Errorf("active rules = %d, want 3", l.Len())
	}
}

func TestExceptionOverridesBlock(t *testing.T) {
	l := Parse("test", "||cdn.example^\n@@||cdn.example/safe/*")
	d := l.Match(req("http://cdn.example/safe/lib.js", devtools.ResourceScript, "pub.example"))
	if d.Blocked {
		t.Error("exception did not override block")
	}
	if d.Exception == nil || d.Rule == nil {
		t.Error("decision should carry both rules")
	}
	d = l.Match(req("http://cdn.example/ads/x.js", devtools.ResourceScript, "pub.example"))
	if !d.Blocked || d.List != "test" {
		t.Errorf("decision = %+v", d)
	}
}

func TestGroupMerging(t *testing.T) {
	easylist := Parse("easylist", "||ads.example^")
	easyprivacy := Parse("easyprivacy", "||tracker.example^\n@@||ads.example/whitelisted^")
	g := NewGroup(easylist, easyprivacy)

	if d := g.Match(req("http://ads.example/banner.js", devtools.ResourceScript, "p.example")); !d.Blocked {
		t.Error("easylist rule not applied through group")
	}
	if d := g.Match(req("http://tracker.example/t.js", devtools.ResourceScript, "p.example")); !d.Blocked {
		t.Error("easyprivacy rule not applied through group")
	}
	// Exception from one list protects against block from another.
	d := g.Match(req("http://ads.example/whitelisted", devtools.ResourceScript, "p.example"))
	if d.Blocked {
		t.Error("cross-list exception did not apply")
	}
	if d := g.Match(req("http://benign.example/x.js", devtools.ResourceScript, "p.example")); d.Blocked {
		t.Error("benign URL blocked")
	}
	if g.RuleCount() != 3 {
		t.Errorf("RuleCount = %d", g.RuleCount())
	}
}

func TestPatternTokenCandidates(t *testing.T) {
	// want lists the token substrings whose hashes must be candidates,
	// in pattern order.
	tests := []struct {
		rule string
		want []string
	}{
		// "||" anchors the host start, so the leading run is bounded;
		// the trailing run before '^' is bounded on both sides.
		{"||doubleclick.net^", []string{"doubleclick", "net"}},
		// Unanchored trailing run: the URL token could continue.
		{"/tracking/pixel", []string{"tracking"}},
		// Leading run of an unanchored pattern can start mid-token.
		{"banner/img^", []string{"img"}},
		// Runs adjoining '*' are unusable on that side.
		{"/banner/*/img^", []string{"banner", "img"}},
		{"/ad*vert/", nil},
		// Start/end anchors bound the pattern edges.
		{"|http://ads.", []string{"http", "ads"}},
		{".swf|", []string{"swf"}},
		// Too-short runs are skipped ('ad', 'js').
		{"/ad/v1/main.js^", []string{"main"}},
	}
	for _, tc := range tests {
		r := mustRule(t, tc.rule)
		got := patternTokenCandidates(r)
		var want []uint64
		for _, s := range tc.want {
			want = append(want, hashRange(s, 0, len(s)))
		}
		if len(got) != len(want) {
			t.Errorf("patternTokenCandidates(%q) = %d tokens, want %d (%q)", tc.rule, len(got), len(want), tc.want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("patternTokenCandidates(%q)[%d] != hash(%q)", tc.rule, i, tc.want[i])
			}
		}
	}
}

func TestURLTokenization(t *testing.T) {
	target := "http://sub.ads-site.example/banner/300x250/img.js?uid=42abc"
	toks := appendURLTokens(nil, target)
	for _, s := range []string{"http", "sub", "ads", "site", "example", "banner", "300x250", "img"} {
		h := hashRange(s, 0, len(s))
		found := false
		for _, tk := range toks {
			if tk == h {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("token %q missing from %q", s, target)
		}
	}
	// Too-short runs must not be hashed.
	for _, s := range []string{"js", "42"} {
		h := hashRange(s, 0, len(s))
		for _, tk := range toks {
			if tk == h {
				t.Errorf("short run %q was tokenized", s)
			}
		}
	}
	// Duplicate runs are deduped.
	dup := appendURLTokens(nil, "http://ads.example/ads/ads.gif")
	seen := map[uint64]int{}
	for _, tk := range dup {
		seen[tk]++
		if seen[tk] > 1 {
			t.Error("duplicate token hash survived dedup")
		}
	}
}

// TestIndexedMatchEquivalenceProperty: matching through the token index
// must agree with brute-force rule-by-rule matching.
func TestIndexedMatchEquivalenceProperty(t *testing.T) {
	ruleLines := []string{
		"||trackpixel.example^",
		"||adserv.example^$script",
		"/beacon/",
		"|http://ads.",
		".gif|",
		"||cdn.example^$domain=pub1.example",
		"||wsnet.example^$websocket",
	}
	var rules []*Rule
	for _, line := range ruleLines {
		r, err := ParseRule(line)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r)
	}
	l := Parse("p", strings.Join(ruleLines, "\n"))

	hosts := []string{"trackpixel.example", "adserv.example", "pub1.example", "cdn.example", "wsnet.example", "benign.example", "ads.example"}
	paths := []string{"/", "/beacon/x", "/img.gif", "/a.js", "/data.ws"}
	schemes := []string{"http", "ws"}
	types := []devtools.ResourceType{devtools.ResourceScript, devtools.ResourceImage, devtools.ResourceWebSocket}
	pages := []string{"pub1.example", "other.example"}

	f := func(h, p, s, ty, pg uint8) bool {
		u := schemes[int(s)%2] + "://" + hosts[int(h)%len(hosts)] + paths[int(p)%len(paths)]
		request := req(u, types[int(ty)%len(types)], pages[int(pg)%len(pages)])
		brute := false
		for _, r := range rules {
			if r.MatchesRequest(request) {
				brute = true
				break
			}
		}
		return l.Match(request).Blocked == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestParseRuleRejectsEmpty(t *testing.T) {
	for _, line := range []string{"", "!comment", "*", "**"} {
		if _, err := ParseRule(line); err == nil {
			t.Errorf("ParseRule(%q) accepted", line)
		}
	}
}

func TestEasyListRealWorldShapes(t *testing.T) {
	// A few rule shapes lifted from real EasyList entries.
	lines := []string{
		"&ad_box_",
		"-banner-ad-",
		"||33across.com^$third-party",
		"||hotjar.com^$third-party",
		"@@||ads.example.com/adsense/$script,domain=ask.example",
		"||lockerdome.com^$third-party",
	}
	l := Parse("easylist", strings.Join(lines, "\n"))
	if l.Len() != len(lines) {
		t.Fatalf("parsed %d of %d rules", l.Len(), len(lines))
	}
	if !l.Match(req("http://cdn.33across.com/tag.js", devtools.ResourceScript, "pub.example")).Blocked {
		t.Error("33across rule failed")
	}
	if !l.Match(req("http://pub.example/x?z=1&ad_box_top", devtools.ResourceScript, "pub.example")).Blocked {
		t.Error("substring rule failed")
	}
	if l.Match(req("http://cdn1.lockerdome.com/img/ad1.png", devtools.ResourceImage, "lockerdome.com")).Blocked {
		t.Error("first-party lockerdome request should not match $third-party rule")
	}
}

// The single-rule and single-list entry points below are test helpers:
// the engine matches through Group.Match and the pre-lowered forms.

// MatchesRequest reports whether the rule matches the request, evaluating
// options first (cheap) and then the URL pattern.
func (r *Rule) MatchesRequest(req Request) bool {
	return r.matchesRequestTarget(req, strings.ToLower(req.URL.String()))
}

// MatchesURL reports whether the rule's pattern matches the URL,
// ignoring options.
func (r *Rule) MatchesURL(u *urlutil.URL) bool {
	return r.matchesTarget(strings.ToLower(u.String()), u.Host)
}

// Match evaluates the request against l alone, as a group of one list:
// a block rule must match and no exception rule may match.
func (l *List) Match(req Request) Decision {
	sc := getScratch()
	sc.prepare(req.URL)
	g := Group{Lists: []*List{l}}
	d := g.matchPrepared(sc, req)
	putScratch(sc)
	return d
}

// RuleCount returns the total active rules across the group.
func (g *Group) RuleCount() int {
	n := 0
	for _, l := range g.Lists {
		n += l.Len()
	}
	return n
}

// mustParse is urlutil.Parse for the well-formed URLs these tests and
// benchmarks build, most of them in helpers without a *testing.T: a
// malformed one is a bug in the test, and panics.
func mustParse(raw string) *urlutil.URL {
	u, err := urlutil.Parse(raw)
	if err != nil {
		panic(err)
	}
	return u
}
