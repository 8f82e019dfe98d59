package browser

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adblock"
	"repro/internal/devtools"
	"repro/internal/filterlist"
	"repro/internal/urlutil"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// env spins up a world and server shared by the tests in this file.
type env struct {
	world  *webgen.World
	server *webserver.Server
}

func newEnv(t *testing.T, era webgen.Era) *env {
	t.Helper()
	w := webgen.NewWorld(webgen.Config{Seed: 99, NumPublishers: 120, Era: era})
	s, err := webserver.Start(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return &env{world: w, server: s}
}

func (e *env) browser(version int, exts ...Extension) *Browser {
	return New(Config{
		Version:    version,
		Seed:       42,
		HTTPClient: e.server.Client(),
		ResolveWS:  e.server.Resolver(),
	}, exts...)
}

// findSocketPublisher returns a publisher whose crawl produces at least
// one WebSocket, by actually visiting pages.
func findSocketPublisher(t *testing.T, e *env, b *Browser) (string, *PageResult) {
	t.Helper()
	for _, p := range e.world.Publishers {
		for page := 0; page <= 3 && page <= p.NumPages; page++ {
			url := "http://" + p.Domain + "/"
			if page > 0 {
				url = "http://" + p.Domain + "/page/" + itoa(page)
			}
			res, err := b.Visit(context.Background(), url)
			if err != nil {
				continue
			}
			for _, ev := range res.Trace.Events {
				if _, ok := ev.(*devtools.WebSocketCreated); ok {
					return p.Domain, res
				}
			}
		}
	}
	t.Fatal("no publisher produced a WebSocket in the sample")
	return "", nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestVisitBasicPage(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	b := e.browser(57)
	pub := e.world.Publishers[0]
	res, err := b.Visit(context.Background(), "http://"+pub.Domain+"/")
	if err != nil {
		t.Fatal(err)
	}
	if res.Document == nil || len(res.Document.GetElementsByTag("h1")) == 0 {
		t.Error("document not parsed")
	}
	if len(res.Links) == 0 {
		t.Error("no links extracted")
	}
	for _, l := range res.Links {
		u := parseURL(t, l)
		if !urlutil.SameParty(u.Host, pub.Domain) {
			t.Errorf("cross-site link extracted: %s", l)
		}
	}
	// The trace must contain the document request and the first-party
	// script execution.
	var sawDoc, sawScript bool
	for _, ev := range res.Trace.Events {
		switch ev := ev.(type) {
		case *devtools.RequestWillBeSent:
			if ev.Type == devtools.ResourceDocument {
				sawDoc = true
			}
		case *devtools.ScriptParsed:
			if strings.Contains(ev.URL, "/js/app.js") {
				sawScript = true
			}
		}
	}
	if !sawDoc || !sawScript {
		t.Errorf("trace missing document (%v) or app script (%v)", sawDoc, sawScript)
	}
}

func TestWebSocketLifecycleEvents(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	b := e.browser(57)
	_, res := findSocketPublisher(t, e, b)

	states := map[devtools.SocketID][]string{}
	for _, ev := range res.Trace.Events {
		switch ev := ev.(type) {
		case *devtools.WebSocketCreated:
			states[ev.SocketID] = append(states[ev.SocketID], "created")
		case *devtools.WebSocketWillSendHandshakeRequest:
			states[ev.SocketID] = append(states[ev.SocketID], "handshake")
			if ev.Header["User-Agent"] == "" {
				t.Error("handshake missing User-Agent")
			}
			if !strings.HasPrefix(ev.Header["Origin"], "http://") {
				t.Error("handshake missing Origin")
			}
		case *devtools.WebSocketHandshakeResponseReceived:
			states[ev.SocketID] = append(states[ev.SocketID], "response")
			if ev.Status != 101 {
				t.Errorf("handshake status %d", ev.Status)
			}
		case *devtools.WebSocketClosed:
			states[ev.SocketID] = append(states[ev.SocketID], "closed")
		}
	}
	if len(states) == 0 {
		t.Fatal("no socket lifecycles")
	}
	for id, seq := range states {
		if seq[0] != "created" || seq[len(seq)-1] != "closed" {
			t.Errorf("socket %s lifecycle %v", id, seq)
		}
	}
}

// TestSocketChildOfScript verifies the Figure 2 property: the socket's
// initiator is the script that created it, and that script has its own
// inclusion ancestry.
func TestSocketChildOfScript(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	b := e.browser(57)
	_, res := findSocketPublisher(t, e, b)

	scripts := map[devtools.ScriptID]*devtools.ScriptParsed{}
	for _, ev := range res.Trace.Events {
		if sp, ok := ev.(*devtools.ScriptParsed); ok {
			scripts[sp.ScriptID] = sp
		}
	}
	checked := 0
	for _, ev := range res.Trace.Events {
		ws, ok := ev.(*devtools.WebSocketCreated)
		if !ok {
			continue
		}
		if ws.Initiator.Type != "script" {
			t.Errorf("socket %s initiated by %q, want script", ws.SocketID, ws.Initiator.Type)
			continue
		}
		if _, ok := scripts[ws.Initiator.ScriptID]; !ok {
			t.Errorf("socket %s initiator script %s not in trace", ws.SocketID, ws.Initiator.ScriptID)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no sockets checked")
	}
}

func TestWRBEndToEnd(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	easylist := filterlist.Parse("easylist", e.world.EasyListText())
	easyprivacy := filterlist.Parse("easyprivacy", e.world.EasyPrivacyText())
	mitigation := filterlist.Parse("ws-mitigation", e.world.MitigationRulesText())

	// Find a page that opens sockets to A&A receivers whose initiating
	// scripts are NOT themselves blockable (partial-rules chat/replay
	// services): only there can the $websocket mitigation rules show
	// their effect, since fully-listed initiators lose their scripts
	// before any socket opens.
	isAAReceiver := func(rawURL string) bool {
		u, err := urlutil.Parse(rawURL)
		if err != nil {
			return false
		}
		c := e.world.CompanyByDomain(u.RegistrableDomain())
		return c != nil && c.AA && c.AcceptsWS && c.PartialRules
	}
	group := filterlist.NewGroup(easylist, easyprivacy)
	plain := e.browser(57)
	var domain string
	var base *PageResult
search:
	for _, p := range e.world.Publishers {
		for page := 0; page <= 3 && page <= p.NumPages; page++ {
			url := "http://" + p.Domain + "/"
			if page > 0 {
				url = "http://" + p.Domain + "/page/" + itoa(page)
			}
			res, err := plain.Visit(context.Background(), url)
			if err != nil {
				continue
			}
			scriptURLs := map[devtools.ScriptID]string{}
			for _, ev := range res.Trace.Events {
				if sp, ok := ev.(*devtools.ScriptParsed); ok {
					scriptURLs[sp.ScriptID] = sp.URL
				}
			}
			for _, ev := range res.Trace.Events {
				ws, ok := ev.(*devtools.WebSocketCreated)
				if !ok || !isAAReceiver(ws.URL) {
					continue
				}
				// The initiating script itself must survive blocking,
				// otherwise the socket never exists post-patch.
				su, err := urlutil.Parse(scriptURLs[ws.Initiator.ScriptID])
				if err != nil {
					continue
				}
				d := group.Match(filterlist.Request{URL: su, Type: devtools.ResourceScript, PageHost: p.Domain})
				if d.Blocked {
					continue
				}
				domain, base = url, res
				break search
			}
		}
	}
	if base == nil {
		t.Fatal("no publisher opened sockets to A&A receivers from unblockable scripts")
	}
	countSockets := func(res *PageResult) (created, blocked int) {
		for _, ev := range res.Trace.Events {
			switch ev := ev.(type) {
			case *devtools.WebSocketCreated:
				created++
			case *devtools.RequestBlocked:
				if ev.Type == devtools.ResourceWebSocket {
					blocked++
				}
			}
		}
		return
	}
	baseCreated, _ := countSockets(base)
	if baseCreated == 0 {
		t.Fatal("baseline page opened no sockets")
	}

	// Pre-patch browser + blocker with ws-mitigation rules: the WRB
	// means no WebSocket is ever dispatched, so none can be blocked.
	pre := e.browser(57, adblock.New("ublock", adblock.AllURLs, easylist, easyprivacy, mitigation))
	resPre, err := pre.Visit(context.Background(), domain)
	if err != nil {
		t.Fatal(err)
	}
	_, blockedPre := countSockets(resPre)
	if blockedPre != 0 {
		t.Errorf("pre-patch browser blocked %d websockets through the WRB", blockedPre)
	}

	// Post-patch browser, same extension: $websocket rules now bite.
	post := New(Config{Version: 58, Seed: 42, HTTPClient: e.server.Client(), ResolveWS: e.server.Resolver()},
		adblock.New("ublock", adblock.AllURLs, easylist, easyprivacy, mitigation))
	resPost, err := post.Visit(context.Background(), domain)
	if err != nil {
		t.Fatal(err)
	}
	createdPost, blockedPost := countSockets(resPost)
	if blockedPost == 0 {
		t.Errorf("post-patch browser blocked no websockets (created %d)", createdPost)
	}
}

func TestHTTPOnlyPatternsMissSockets(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	mitigation := filterlist.Parse("ws-mitigation", e.world.MitigationRulesText())
	plain := e.browser(57)
	domain, _ := findSocketPublisher(t, e, plain)

	// Patched browser but http/https-only registration: sockets sail
	// through (the Franken et al. finding).
	b := New(Config{Version: 58, Seed: 42, HTTPClient: e.server.Client(), ResolveWS: e.server.Resolver()},
		adblock.New("naive", adblock.HTTPOnlyPatterns, mitigation))
	res, err := b.Visit(context.Background(), "http://"+domain+"/")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Trace.Events {
		if rb, ok := ev.(*devtools.RequestBlocked); ok && rb.Type == devtools.ResourceWebSocket {
			t.Errorf("http-only patterns blocked a websocket: %s", rb.URL)
		}
	}
}

func TestBlockerCancelsHTTPTrackers(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	easylist := filterlist.Parse("easylist", e.world.EasyListText())
	blocker := adblock.New("abp", adblock.HTTPOnlyPatterns, easylist)
	b := e.browser(57, blocker)

	// Visit several pages; EasyList-domain scripts must get cancelled.
	visited, blocked := 0, 0
	for _, p := range e.world.Publishers {
		hasListed := false
		for _, c := range p.Services {
			if c.EasyList && !c.PartialRules {
				hasListed = true
			}
		}
		if !hasListed {
			continue
		}
		res, err := b.Visit(context.Background(), "http://"+p.Domain+"/")
		if err != nil {
			t.Fatal(err)
		}
		blocked += res.Blocked
		visited++
		if visited >= 3 {
			break
		}
	}
	if visited == 0 {
		t.Skip("no publisher with fully-listed services")
	}
	if blocked == 0 {
		t.Error("blocker cancelled nothing on ad-heavy pages")
	}
}

func TestFrameEvents(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	b := e.browser(57)
	// Find a page with an iframe ad slot.
	for _, p := range e.world.Publishers {
		for page := 0; page <= p.NumPages && page <= 5; page++ {
			if len(e.world.PlanFor(p, page).IframeURLs) == 0 {
				continue
			}
			url := "http://" + p.Domain + "/"
			if page > 0 {
				url = "http://" + p.Domain + "/page/" + itoa(page)
			}
			res, err := b.Visit(context.Background(), url)
			if err != nil {
				t.Fatal(err)
			}
			frames := 0
			for _, ev := range res.Trace.Events {
				if fn, ok := ev.(*devtools.FrameNavigated); ok && fn.ParentFrameID != "" {
					frames++
				}
			}
			if frames == 0 {
				t.Error("iframe produced no child FrameNavigated event")
			}
			return
		}
	}
	t.Skip("no iframe pages in sample")
}

func TestDOMExfiltrationCarriesLiveDocument(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	b := e.browser(57)
	// Find a session-replay publisher.
	for _, p := range e.world.Publishers {
		replay := false
		for _, c := range p.Services {
			if c.Category == webgen.CatSessionReplay {
				replay = true
			}
		}
		if !replay {
			continue
		}
		for page := 0; page <= p.NumPages; page++ {
			url := "http://" + p.Domain + "/"
			if page > 0 {
				url = "http://" + p.Domain + "/page/" + itoa(page)
			}
			res, err := b.Visit(context.Background(), url)
			if err != nil {
				continue
			}
			for _, ev := range res.Trace.Events {
				fs, ok := ev.(*devtools.WebSocketFrameSent)
				if !ok {
					continue
				}
				if strings.Contains(string(fs.Payload), "dom=") {
					// The serialized DOM must reference this page.
					if !strings.Contains(res.Document.OuterHTML(), p.Domain) {
						t.Error("document does not mention publisher")
					}
					return
				}
			}
		}
	}
	t.Skip("no session-replay DOM upload observed in sample")
}

func TestResolveRef(t *testing.T) {
	base := parseURL(t, "http://pub.example/dir/page.html")
	tests := []struct{ href, want string }{
		{"http://other.example/x", "http://other.example/x"},
		{"//cdn.example/lib.js", "http://cdn.example/lib.js"},
		{"/abs/path", "http://pub.example/abs/path"},
		{"rel.html", "http://pub.example/dir/rel.html"},
	}
	for _, tc := range tests {
		u, err := urlutil.Parse(resolveRef(base, tc.href))
		if err != nil {
			t.Fatalf("resolveRef(%q): %v", tc.href, err)
		}
		if u.String() != tc.want {
			t.Errorf("resolveRef(%q) = %q, want %q", tc.href, u.String(), tc.want)
		}
	}
}

func TestCookiePersistence(t *testing.T) {
	b := &Browser{cookies: map[string]string{}, rng: newTestRand()}
	c1 := b.cookieFor("tracker.example")
	c2 := b.cookieFor("tracker.example")
	if c1 != c2 {
		t.Error("cookie not stable per domain")
	}
	if b.cookieFor("other.example") == c1 {
		t.Error("cookies identical across domains")
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

// TestSocketGuardDefeatsWRB verifies the uBO-Extra mitigation: a
// page-level socket wrapper blocks A&A sockets even on a pre-patch
// browser where the webRequest layer never sees them.
func TestSocketGuardDefeatsWRB(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	mitigation := filterlist.Parse("ws-mitigation", e.world.MitigationRulesText())

	// Find a page with sockets to A&A receivers using a stock browser.
	plain := e.browser(57)
	var pageURL string
search:
	for _, p := range e.world.Publishers {
		for page := 0; page <= 3 && page <= p.NumPages; page++ {
			url := "http://" + p.Domain + "/"
			if page > 0 {
				url = "http://" + p.Domain + "/page/" + itoa(page)
			}
			res, err := plain.Visit(context.Background(), url)
			if err != nil {
				continue
			}
			for _, ev := range res.Trace.Events {
				if ws, ok := ev.(*devtools.WebSocketCreated); ok {
					u := parseURL(t, ws.URL)
					if c := e.world.CompanyByDomain(u.RegistrableDomain()); c != nil && c.AA && c.AcceptsWS {
						pageURL = url
						break search
					}
				}
			}
		}
	}
	if pageURL == "" {
		t.Fatal("no A&A socket page found")
	}

	guard := adblock.NewSocketGuard("ubo-extra", adblock.AllURLs, mitigation)
	// Version 57: the WRB is live, yet the guard still vetoes sockets.
	b := e.browser(57, guard)
	res, err := b.Visit(context.Background(), pageURL)
	if err != nil {
		t.Fatal(err)
	}
	blocked := 0
	for _, ev := range res.Trace.Events {
		if rb, ok := ev.(*devtools.RequestBlocked); ok && rb.Type == devtools.ResourceWebSocket {
			blocked++
			if rb.Extension != "ubo-extra" {
				t.Errorf("blocked by %q, want the guard", rb.Extension)
			}
		}
	}
	if blocked == 0 {
		t.Error("guard blocked nothing despite mitigation rules")
	}
}

// TestFeatureBlockerKillsAllSockets checks the Snyder et al. strategy:
// disabling the WebSocket feature wholesale stops every socket on any
// browser version.
func TestFeatureBlockerKillsAllSockets(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	plain := e.browser(57)
	domain, _ := findSocketPublisher(t, e, plain)

	f := adblock.NewFeatureBlocker("no-websockets")
	b := e.browser(57, f)
	// Crawl several pages of the site: no socket may ever open.
	blocked := 0
	for page := 0; page <= 5; page++ {
		url := "http://" + domain + "/page/" + itoa(page)
		if page == 0 {
			url = "http://" + domain + "/"
		}
		res, err := b.Visit(context.Background(), url)
		if err != nil {
			continue
		}
		blocked += res.Blocked
		for _, ev := range res.Trace.Events {
			if _, ok := ev.(*devtools.WebSocketCreated); ok {
				t.Fatal("a socket opened under the feature blocker")
			}
		}
	}
	if blocked == 0 {
		t.Error("feature blocker never fired")
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
