package webgen

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/script"
	"repro/internal/urlutil"
)

func testWorld(era Era) *World {
	return NewWorld(Config{Seed: 7, NumPublishers: 300, Era: era})
}

func TestWorldDeterminism(t *testing.T) {
	a := testWorld(EraPrePatch)
	b := testWorld(EraPrePatch)
	if len(a.Publishers) != len(b.Publishers) {
		t.Fatal("publisher counts differ")
	}
	for i := range a.Publishers {
		pa, pb := a.Publishers[i], b.Publishers[i]
		if pa.Domain != pb.Domain || pa.Rank != pb.Rank || len(pa.Services) != len(pb.Services) {
			t.Fatalf("publisher %d differs: %+v vs %+v", i, pa, pb)
		}
	}
	// Same page renders identically.
	p := a.Publishers[0]
	if !bytes.Equal(a.RenderPage(p, 0), b.RenderPage(b.Publishers[0], 0)) {
		t.Error("page render not deterministic")
	}
}

func TestDeploymentsStableAcrossEras(t *testing.T) {
	pre := testWorld(EraPrePatch)
	post := testWorld(EraPostPatch)
	for i := range pre.Publishers {
		pa, pb := pre.Publishers[i], post.Publishers[i]
		if pa.Domain != pb.Domain {
			t.Fatalf("publisher order changed across eras")
		}
		if len(pa.Services) != len(pb.Services) {
			t.Fatalf("%s: services differ across eras (%d vs %d)", pa.Domain, len(pa.Services), len(pb.Services))
		}
	}
}

func TestSocketSiteRateRoughlyCalibrated(t *testing.T) {
	w := NewWorld(Config{Seed: 3, NumPublishers: 2000, Era: EraPrePatch})
	socketSites := 0
	for _, p := range w.Publishers {
		has := p.SelfWS
		for _, c := range p.Services {
			if c.InitiatesWS[EraPrePatch] {
				has = true
				break
			}
		}
		if has {
			socketSites++
		}
	}
	rate := float64(socketSites) / float64(len(w.Publishers))
	// The paper reports ~2% of sites with sockets; deployment-level
	// presence should land in a loose band around that (pages roll
	// lazily, so observed crawl rates are lower than deployment rates).
	if rate < 0.015 || rate > 0.12 {
		t.Errorf("socket-capable site rate = %.3f, outside sanity band", rate)
	}
}

func TestNamedPublishersPresent(t *testing.T) {
	w := testWorld(EraPrePatch)
	for _, d := range []string{"espn.com", "slither.io", "acenterforrecovery.com", "rubymonk.com"} {
		p := w.PublisherByDomain(d)
		if p == nil {
			t.Fatalf("named publisher %s missing", d)
		}
		if !p.Named {
			t.Errorf("%s not marked Named", d)
		}
	}
	if !w.PublisherByDomain("slither.io").SelfWS {
		t.Error("slither.io should self-host sockets")
	}
	if !w.PublisherByDomain("acenterforrecovery.com").HasService("intercom.io") {
		t.Error("acenterforrecovery should deploy intercom")
	}
}

func TestPageRenderParsesAndLinks(t *testing.T) {
	w := testWorld(EraPrePatch)
	p := w.PublisherByDomain("espn.com")
	html := string(w.RenderPage(p, 0))
	if !strings.Contains(html, "app.js?pg=0") {
		t.Error("homepage missing first-party script")
	}
	if !strings.Contains(html, "/page/1") {
		t.Error("homepage missing nav links")
	}
	// espncdn script must be referenced directly or via app.js.
	plan := w.PlanFor(p, 0)
	found := false
	for _, u := range plan.DirectURLs {
		if strings.Contains(u, "espncdn.com") {
			found = true
		}
	}
	for _, op := range plan.AppProgram.Ops {
		if op.Do == script.OpIncludeScript && strings.Contains(op.URL, "espncdn.com") {
			found = true
		}
	}
	if !found {
		t.Error("espncdn script not placed on espn.com")
	}
}

func TestResourceResolution(t *testing.T) {
	w := testWorld(EraPrePatch)
	pub := w.Publishers[0]

	res, ok := w.Get("http://" + pub.Domain + "/")
	if !ok || res.Status != 200 || !strings.Contains(res.ContentType, "text/html") {
		t.Fatalf("homepage: ok=%v res=%+v", ok, res)
	}
	res, ok = w.Get("http://" + pub.Domain + "/js/app.js?pg=0")
	if !ok || res.Status != 200 {
		t.Fatal("app.js not served")
	}
	if prog, err := script.Decode(string(res.Body)); err != nil || prog == nil {
		t.Fatalf("app.js does not carry a program: %v", err)
	}
	res, ok = w.Get("http://" + pub.Domain + "/img/0-0.gif")
	if !ok || res.ContentType != "image/gif" {
		t.Fatal("image not served")
	}
	if _, ok := w.Get("http://unknown-host.example/"); ok {
		t.Error("unknown host resolved")
	}
	res, ok = w.Get("http://" + pub.Domain + "/page/9999")
	if !ok || res.Status != 404 {
		t.Error("out-of-range page should 404")
	}
}

func TestCompanyScriptPrograms(t *testing.T) {
	w := testWorld(EraPrePatch)
	// Find a publisher deploying zopim (self-socket style).
	var pub *Publisher
	for _, p := range w.Publishers {
		if p.HasService("zopim.com") {
			pub = p
			break
		}
	}
	if pub == nil {
		t.Skip("no zopim deployment in this seed")
	}
	c := w.CompanyByDomain("zopim.com")
	sawSocket := false
	for page := 0; page <= pub.NumPages; page++ {
		prog := w.companyProgram(c, pub, page)
		for _, op := range prog.Ops {
			if op.Do == script.OpOpenWebSocket {
				sawSocket = true
				if !strings.Contains(op.URL, "zopim.com") {
					t.Errorf("zopim socket to %q, want self", op.URL)
				}
			}
		}
	}
	if !sawSocket {
		t.Error("zopim never opened a socket across all pages")
	}
}

func TestEraChangesInitiators(t *testing.T) {
	pre := testWorld(EraPrePatch)
	post := testWorld(EraPostPatch)
	dc := pre.CompanyByDomain("doubleclick.net")
	var pub *Publisher
	for _, p := range pre.Publishers {
		if p.HasService("doubleclick.net") {
			pub = p
			break
		}
	}
	if pub == nil {
		t.Skip("no doubleclick deployment in this seed")
	}
	countSockets := func(w *World) int {
		n := 0
		for page := 0; page <= pub.NumPages; page++ {
			for _, op := range w.companyProgram(dc, w.PublisherByDomain(pub.Domain), page).Ops {
				if op.Do == script.OpOpenWebSocket {
					n++
				}
			}
		}
		return n
	}
	if countSockets(pre) == 0 {
		t.Error("doubleclick opens no sockets pre-patch")
	}
	if countSockets(post) != 0 {
		t.Error("doubleclick still opens sockets post-patch")
	}
}

func TestWSEndpointResolution(t *testing.T) {
	w := testWorld(EraPrePatch)
	ep, ok := w.WSEndpointFor("intercom.io", "/ws")
	if !ok || ep.Company == nil || ep.Company.Domain != "intercom.io" {
		t.Fatalf("intercom endpoint: %v %v", ep, ok)
	}
	if _, ok := w.WSEndpointFor("intercom.io", "/bogus"); ok {
		t.Error("bogus path resolved")
	}
	ep, ok = w.WSEndpointFor("slither.io", "/live")
	if !ok || ep.Publisher == nil {
		t.Error("publisher self endpoint not resolved")
	}
	ep, ok = w.WSEndpointFor("feed03-rt.net", "/stream")
	if !ok || ep.Company != nil || ep.Publisher != nil {
		t.Error("feed endpoint not resolved as generic")
	}
}

func TestWSMessagesRespectQuery(t *testing.T) {
	w := testWorld(EraPrePatch)
	ep, _ := w.WSEndpointFor("intercom.io", "/ws")
	if msgs := w.WSMessages(ep, "sid=ab12&n=0"); len(msgs) != 0 {
		t.Errorf("n=0 produced %d messages", len(msgs))
	}
	msgs := w.WSMessages(ep, "sid=ab12&n=3")
	if len(msgs) != 3 {
		t.Errorf("n=3 produced %d messages", len(msgs))
	}
	again := w.WSMessages(ep, "sid=ab12&n=3")
	for i := range msgs {
		if string(msgs[i]) != string(again[i]) {
			t.Error("ws responses not deterministic")
		}
	}
	if msgs := w.WSMessages(ep, "sid=x&n=99"); len(msgs) > 8 {
		t.Errorf("n cap not enforced: %d", len(msgs))
	}
}

func TestGeneratedRuleLists(t *testing.T) {
	w := testWorld(EraPrePatch)
	el := w.EasyListText()
	ep := w.EasyPrivacyText()
	for _, want := range []string{"||doubleclick.net^$third-party", "||33across.com/track/", "||lockerdome.com/track/"} {
		if !strings.Contains(el, want) {
			t.Errorf("EasyList missing %q", want)
		}
	}
	if strings.Contains(el, "||lockerdome.com^") {
		t.Error("EasyList must not block all of lockerdome (its CDN stays reachable)")
	}
	for _, want := range []string{"||facebook.com/track/", "||intercom.io/track/", "||hotjar.com/track/"} {
		if !strings.Contains(ep, want) {
			t.Errorf("EasyPrivacy missing %q", want)
		}
	}
	mit := w.MitigationRulesText()
	if !strings.Contains(mit, "$websocket") {
		t.Error("mitigation rules missing $websocket options")
	}
	cf := w.CloudfrontMap()
	if cf["d10lpsik1i8c69.cloudfront.net"] != "luckyorange.com" {
		t.Errorf("cloudfront map = %v", cf)
	}
}

func TestHostsCoverage(t *testing.T) {
	w := testWorld(EraPrePatch)
	hosts := w.Hosts()
	if len(hosts) < 300 {
		t.Errorf("only %d hosts", len(hosts))
	}
	for _, h := range hosts {
		if !w.KnownHost(h) {
			t.Errorf("host %s from Hosts() not KnownHost", h)
		}
	}
	if w.KnownHost("definitely-not-ours.example") {
		t.Error("unknown host accepted")
	}
	// Registrable-domain lookup: subdomains of known publishers count.
	if !w.KnownHost("cdn.intercom.io") {
		t.Error("company script host unknown")
	}
}

func TestFirstPartySocketOpsInAppProgram(t *testing.T) {
	w := testWorld(EraPrePatch)
	pub := w.PublisherByDomain("acenterforrecovery.com")
	saw := false
	for page := 0; page <= pub.NumPages; page++ {
		for _, op := range w.PlanFor(pub, page).AppProgram.Ops {
			if op.Do == script.OpOpenWebSocket && strings.Contains(op.URL, "intercom.io") {
				saw = true
				u := urlutil.MustParse(op.URL)
				if !u.IsWebSocket() {
					t.Error("socket op URL not ws://")
				}
			}
		}
	}
	if !saw {
		t.Error("first-party intercom socket never opened across pages")
	}
}
