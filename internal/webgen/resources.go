package webgen

import (
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/payload"
	"repro/internal/script"
	"repro/internal/urlutil"
)

// Resource is one HTTP-servable object.
type Resource struct {
	Status      int
	ContentType string
	Body        []byte
}

// PagePlan is the deterministic load plan for one publisher page: what
// the HTML references directly and what the first-party script does.
type PagePlan struct {
	Title      string
	DirectURLs []string // third-party script tags in the HTML
	AppProgram *script.Program
	ImagePaths []string // first-party images
	IframeURLs []string // ad-slot iframes
	LinkPaths  []string // same-site navigation links
}

// PlanFor computes the load plan for page n (0 = homepage) of a
// publisher. The plan is pure: equal (world, publisher, page) yield the
// same plan, which is how RenderPage and the /js/app.js endpoint agree
// on a page without sharing one.
func (w *World) PlanFor(pub *Publisher, page int) *PagePlan {
	rng := w.rng("plan", pub.Domain, strconv.Itoa(page))
	plan := &PagePlan{
		Title:      pub.Domain + " — " + pub.Category + " " + strconv.Itoa(page),
		AppProgram: &script.Program{},
	}

	// Third-party placements: stable per site, split between direct
	// HTML tags and dynamic inclusion by the first-party script.
	for _, c := range pub.Services {
		su := w.scriptURL(c, pub, page)
		if w.stableRng("placement", pub.Domain, c.Domain).Float64() < 0.5 {
			plan.DirectURLs = append(plan.DirectURLs, su)
		} else {
			plan.AppProgram.Ops = append(plan.AppProgram.Ops, script.Include(su))
		}
		// Full-blocked ad companies also render iframe ad slots.
		if c.EasyList && !c.PartialRules && c.Category != CatAnalytics && rng.Float64() < 0.5 {
			plan.IframeURLs = append(plan.IframeURLs, c.pageURL("/frame.html?pub=", pub, page))
		}
	}

	// First-party-initiated sockets: the inline-snippet pattern that
	// gives chat receivers their benign initiators (Table 3).
	for _, c := range pub.Services {
		if !c.AcceptsWS || c.Style != InitFirstParty || !c.InitiatesWS[w.Cfg.Era] {
			continue
		}
		if rng.Float64() >= c.PagesWithSockets {
			continue
		}
		count := c.SocketsPerPage.sample(rng.Float64())
		for k := 0; k < count; k++ {
			op := w.socketOp(c, c.Domain, rng)
			plan.AppProgram.Ops = append(plan.AppProgram.Ops, op)
		}
	}

	// Publisher-hosted sockets (games, dashboards): same-origin,
	// non-A&A on both ends.
	if pub.SelfWS && rng.Float64() < 0.7 {
		n := 1 + rng.Intn(2)
		plan.AppProgram.Ops = append(plan.AppProgram.Ops, script.Op{
			Do: script.OpOpenWebSocket, URL: socketURL(pub.Domain, "/live", rng.Uint32(), n),
			Send:   []script.MessageSpec{{Kinds: []string{payload.KindUA}}},
			Expect: n,
		})
	}

	// Page furniture.
	nImages := 2 + rng.Intn(4)
	plan.ImagePaths = make([]string, 0, nImages)
	for k := 0; k < nImages; k++ {
		plan.ImagePaths = append(plan.ImagePaths, "/img/"+strconv.Itoa(page)+"-"+strconv.Itoa(k)+".gif")
	}
	if page == 0 {
		plan.LinkPaths = make([]string, 0, pub.NumPages)
		for n := 1; n <= pub.NumPages; n++ {
			plan.LinkPaths = append(plan.LinkPaths, "/page/"+strconv.Itoa(n))
		}
	} else {
		seen := map[int]bool{page: true}
		for k := 0; k < 4 && len(seen) <= pub.NumPages; k++ {
			n := 1 + rng.Intn(pub.NumPages)
			if !seen[n] {
				seen[n] = true
				plan.LinkPaths = append(plan.LinkPaths, "/page/"+strconv.Itoa(n))
			}
		}
		plan.LinkPaths = append(plan.LinkPaths, "/")
	}
	return plan
}

// scriptURL builds a company's widget-script URL for one page. The pg
// parameter makes behaviour page-specific while remaining cacheable in
// shape, the way real tags carry cache-busting parameters.
func (w *World) scriptURL(c *Company, pub *Publisher, page int) string {
	return c.pageURL("/w.js?pub=", pub, page)
}

// pageURL is http://<script host><path><publisher>&pg=<page>: the shape
// of every per-page URL a company serves.
func (c *Company) pageURL(path string, pub *Publisher, page int) string {
	sub, domain := c.scriptHostParts()
	return "http://" + sub + domain + path + pub.Domain + "&pg=" + strconv.Itoa(page)
}

// socketURL is ws://<host><path>?sid=<%08x of sid>&n=<n>.
func socketURL(host, path string, sid uint32, n int) string {
	var buf [96]byte
	b := cat(buf[:0], "ws://", host, path, "?sid=")
	b = appendPadded(b, uint64(sid), 16, 8)
	return string(cat(b, "&n=", strconv.Itoa(n)))
}

// cat appends every part to b.
func cat(b []byte, parts ...string) []byte {
	for _, part := range parts {
		b = append(b, part...)
	}
	return b
}

// appendPadded appends v in the given base, zero-padded on the left to
// width digits: fmt's %08x and %06d.
func appendPadded(dst []byte, v uint64, base, width int) []byte {
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], v, base)
	for i := len(digits); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// socketOp builds an open_websocket op targeting the given receiver
// domain on behalf of company c. Its message specs share the company's
// kind lists: programs are encoded or read, never edited.
func (w *World) socketOp(c *Company, receiverDomain string, rng *rand.Rand) script.Op {
	path, n := w.endpointFor(receiverDomain, rng)
	url := socketURL(receiverDomain, path, rng.Uint32(), n)
	var send []script.MessageSpec
	if rng.Float64() >= c.SendNothing {
		for _, kinds := range c.SendKinds {
			send = append(send, script.MessageSpec{Kinds: kinds})
		}
		// Receivers that harvest fingerprints get the full bundle from
		// every A&A script that connects (the DoubleClick → 33across
		// flow of §4.3).
		if rc := w.companyByDomain[urlutil.RegistrableDomain(receiverDomain)]; rc != nil && rc.CollectsFingerprint && c.AA {
			send = append(send, script.MessageSpec{Kinds: payload.FingerprintKinds})
		}
		if c.SendBinary > 0 && rng.Float64() < c.SendBinary {
			send = append(send, script.MessageSpec{Kinds: []string{payload.KindBinary}, Binary: true})
		}
	}
	return script.Op{
		Do:         script.OpOpenWebSocket,
		URL:        url,
		Send:       send,
		Expect:     n,
		SendCookie: rng.Float64() < c.CookieProb,
	}
}

// endpointFor returns the WebSocket path and the number of messages the
// endpoint will push for this connection.
func (w *World) endpointFor(receiverDomain string, rng *rand.Rand) (string, int) {
	if rc := w.companyByDomain[urlutil.RegistrableDomain(receiverDomain)]; rc != nil && rc.AcceptsWS {
		path := rc.WSPath
		if path == "" {
			path = "/ws"
		}
		if rng.Float64() < rc.RespondNothing {
			return path, 0
		}
		if rng.Float64() < 0.6 {
			return path, 1
		}
		return path, 2 + rng.Intn(2)
	}
	// Generic feed endpoint.
	if rng.Float64() < 0.35 {
		return "/stream", 0
	}
	return "/stream", 1 + rng.Intn(2)
}

// companyProgram builds the behaviour program for a company's widget
// script on one page of one publisher.
func (w *World) companyProgram(c *Company, pub *Publisher, page int) *script.Program {
	rng := w.rng("cw", pub.Domain, strconv.Itoa(page), c.Domain)
	p := &script.Program{}

	// Ordinary HTTP tracking: beacons and pixels (Table 5's HTTP/S
	// comparison columns). Partially-listed companies fire at least a
	// minimal beacon — that /track request is what earns them their
	// a(d) observations and hence their place in D′.
	beacons := c.BeaconKinds
	if len(beacons) == 0 && c.PartialRules {
		beacons = [][]string{{payload.KindUA}}
	}
	// The mostly-clean CDN fires its tracked beacon too rarely to
	// clear the 10% labeling threshold (and never on shallow pages, so
	// small crawls cannot mislabel it by sampling luck).
	fire := true
	if c.Domain == "mostlyclean-cdn.net" {
		fire = page == 7 && rng.Intn(2) == 0
	}
	if fire {
		for _, kinds := range beacons {
			p.Ops = append(p.Ops, script.Op{
				Do:         script.OpHTTPBeacon,
				URL:        c.pageURL("/track/b?pub=", pub, page),
				Send:       []script.MessageSpec{{Kinds: kinds}},
				SendCookie: rng.Float64() < 0.5,
			})
		}
	}
	if c.HTTPPresence {
		var buf [128]byte
		sub, domain := c.scriptHostParts()
		b := cat(buf[:0], "http://", sub, domain, "/pixel.gif?pub=", pub.Domain, "&r=")
		p.Ops = append(p.Ops, script.Image(string(appendPadded(b, uint64(rng.Intn(1_000_000)), 10, 6))))
	}
	// The borderline CDN fires a tracked beacon on every page so it
	// clears the threshold despite serving mostly clean resources.
	if c.Domain == "borderline-cdn.com" {
		sub, domain := c.scriptHostParts()
		p.Ops = append(p.Ops, script.Image(
			"http://"+sub+domain+"/lib/asset-"+strconv.Itoa(rng.Intn(8))+".gif"))
	}

	// WebSocket behaviour.
	if c.InitiatesWS[w.Cfg.Era] && c.Style != InitFirstParty && rng.Float64() < c.PagesWithSockets {
		count := c.SocketsPerPage.sample(rng.Float64())
		for k := 0; k < count; k++ {
			receiver := c.Domain
			if c.Style == InitPartner && len(c.PartnerPool) > 0 {
				// Each page dials a bounded set of partners.
				nPartners := c.PartnersPerPage.sample(rng.Float64())
				if nPartners < 1 {
					nPartners = 1
				}
				receiver = c.PartnerPool[rng.Intn(len(c.PartnerPool))]
				for extra := 1; extra < nPartners; extra++ {
					r2 := c.PartnerPool[rng.Intn(len(c.PartnerPool))]
					p.Ops = append(p.Ops, w.socketOp(c, r2, rng))
				}
			}
			p.Ops = append(p.Ops, w.socketOp(c, receiver, rng))
		}
	}
	return p
}

// Get resolves an absolute http:// URL to a servable resource. The
// second return is false for hosts/paths outside the world.
func (w *World) Get(rawURL string) (*Resource, bool) {
	u, err := urlutil.Parse(rawURL)
	if err != nil {
		return nil, false
	}
	return w.GetURL(u)
}

// GetURL is Get for callers that already hold a parsed URL (the
// in-process Fetch plane), sparing the round-trip through String and
// re-Parse. u is treated as read-only.
func (w *World) GetURL(u *urlutil.URL) (*Resource, bool) {
	if u.IsWebSocket() {
		return nil, false
	}
	if pub := w.pubByDomain[u.Host]; pub != nil {
		return w.publisherResource(pub, u)
	}
	if c := w.CompanyByHost(u.Host); c != nil {
		return w.companyResource(c, u)
	}
	return nil, false
}

func (w *World) publisherResource(pub *Publisher, u *urlutil.URL) (*Resource, bool) {
	switch {
	case u.Path == "/":
		return htmlResource(w.RenderPage(pub, 0)), true
	case strings.HasPrefix(u.Path, "/page/"):
		n := atoi(strings.TrimPrefix(u.Path, "/page/"))
		if n < 1 || n > pub.NumPages {
			return &Resource{Status: 404, ContentType: "text/plain", Body: []byte("not found")}, true
		}
		return htmlResource(w.RenderPage(pub, n)), true
	case u.Path == "/js/app.js":
		plan := w.PlanFor(pub, atoi(queryParam(u.Query, "pg")))
		return jsResource(plan.AppProgram.MustEncode()), true
	case strings.HasPrefix(u.Path, "/img/"):
		return &Resource{Status: 200, ContentType: "image/gif", Body: pixelGIFBody}, true
	case u.Path == "/css/site.css":
		return &Resource{Status: 200, ContentType: "text/css",
			Body: []byte("body{font-family:sans-serif;margin:2em}.ad{border:1px solid #ccc}")}, true
	}
	return &Resource{Status: 404, ContentType: "text/plain", Body: []byte("not found")}, true
}

func (w *World) companyResource(c *Company, u *urlutil.URL) (*Resource, bool) {
	switch {
	case u.Path == "/w.js":
		pub := w.pubByDomain[queryParam(u.Query, "pub")]
		if pub == nil {
			return jsResource([]byte("/* no-op */function noop(){}")), true
		}
		return jsResource(w.companyProgram(c, pub, atoi(queryParam(u.Query, "pg"))).MustEncode()), true
	case u.Path == "/pixel.gif":
		return &Resource{Status: 200, ContentType: "image/gif", Body: pixelGIFBody}, true
	case strings.HasPrefix(u.Path, "/track/"):
		// Beacon endpoints usually acknowledge with an empty body, but
		// some return small JSON configs (Table 5's HTTP JSON slice).
		if len(u.Query)%6 == 0 {
			return &Resource{Status: 200, ContentType: "application/json", Body: []byte(`{"ok":true,"sampled":false}`)}, true
		}
		return &Resource{Status: 204, ContentType: "text/plain", Body: nil}, true
	case u.Path == "/frame.html":
		rng := w.rng("frame", u.Host, u.Query)
		sub, domain := c.scriptHostParts()
		body := cat(make([]byte, 0, 192), `<!DOCTYPE html><html><head><title>ad</title></head><body class="ad">`,
			`<img src="http://`, sub, domain, "/pixel.gif?f=1&r=")
		body = appendPadded(body, uint64(rng.Intn(1_000_000)), 10, 6)
		return htmlResource(cat(body, `"><p>Sponsored content</p></body></html>`)), true
	case strings.HasPrefix(u.Path, "/img/"):
		// Ad creatives on the company's CDN host (cdn1.lockerdome.com):
		// a JPEG signature plus filler.
		return &Resource{Status: 200, ContentType: "image/jpeg", Body: adJPEGBody}, true
	case strings.HasPrefix(u.Path, "/lib/"):
		return &Resource{Status: 200, ContentType: "image/gif", Body: pixelGIFBody}, true
	}
	return &Resource{Status: 404, ContentType: "text/plain", Body: []byte("not found")}, true
}

// RenderPage renders the HTML for page n of a publisher.
func (w *World) RenderPage(pub *Publisher, page int) []byte {
	plan := w.PlanFor(pub, page)
	rng := w.rng("text", pub.Domain, strconv.Itoa(page))
	// Sized to the page: the body outlives this call in the visit's
	// trace, so a regrow would be paid for twice.
	size := 640 + 2*len(plan.Title) + 2*len(pub.Domain)
	for _, group := range [][]string{plan.DirectURLs, plan.ImagePaths, plan.IframeURLs, plan.LinkPaths} {
		for _, ref := range group {
			size += 56 + len(ref)
		}
	}
	b := make([]byte, 0, size)
	b = cat(b, "<!DOCTYPE html>\n<html>\n<head>\n<title>", plan.Title, "</title>\n",
		`<link rel="stylesheet" href="/css/site.css">`+"\n",
		`<script src="http://`, pub.Domain, "/js/app.js?pg=", strconv.Itoa(page), `"></script>`+"\n")
	for _, su := range plan.DirectURLs {
		b = cat(b, `<script src="`, su, `"></script>`+"\n")
	}
	b = cat(b, "</head>\n<body>\n<h1>", plan.Title, "</h1>\n",
		`<form action="/search"><input name="q" placeholder="Search `, pub.Domain, `"></form>`+"\n")
	for i := 0; i < 3; i++ {
		b = cat(b, "<p>", pageSentences[rng.Intn(len(pageSentences))], "</p>\n")
	}
	for _, img := range plan.ImagePaths {
		b = cat(b, `<img src="`, img, `" alt="photo">`+"\n")
	}
	for _, fr := range plan.IframeURLs {
		b = cat(b, `<iframe src="`, fr, `" width="300" height="250"></iframe>`+"\n")
	}
	b = cat(b, "<nav>\n")
	for i, l := range plan.LinkPaths {
		b = cat(b, `<a href="`, l, `">link `, strconv.Itoa(i), "</a>\n")
	}
	return cat(b, "</nav>\n</body>\n</html>\n")
}

var pageSentences = []string{
	"The committee will meet again next week to review the findings.",
	"Local startups report a surge in interest following the announcement.",
	"Analysts remain divided over the long-term implications.",
	"Readers shared hundreds of comments within the first hour.",
	"A follow-up piece with expanded interviews is planned.",
	"The archive contains material going back more than a decade.",
}

func htmlResource(body []byte) *Resource {
	return &Resource{Status: 200, ContentType: "text/html; charset=utf-8", Body: body}
}

func jsResource(body []byte) *Resource {
	return &Resource{Status: 200, ContentType: "application/javascript", Body: body}
}

// Shared response bodies for static resources, rendered once. Servers
// hand these out by reference; every consumer (wire writes, the
// in-process Fetch plane, the browser) treats resource bodies as
// read-only.
var (
	pixelGIFBody = payload.PixelGIF()
	adJPEGBody   = append([]byte("\xFF\xD8\xFF\xE0\x00\x10JFIF\x00"), []byte(strings.Repeat("ad", 64))...)
)

// queryParam returns the value of key in a raw query string without
// allocating. Like parseQuery, the last occurrence of a key wins.
func queryParam(q, key string) string {
	val := ""
	for len(q) > 0 {
		kv := q
		if i := strings.IndexByte(q, '&'); i >= 0 {
			kv, q = q[:i], q[i+1:]
		} else {
			q = ""
		}
		if kv == "" {
			continue
		}
		k, v := kv, ""
		if i := strings.IndexByte(kv, '='); i >= 0 {
			k, v = kv[:i], kv[i+1:]
		}
		if k == key {
			val = v
		}
	}
	return val
}

func parseQuery(q string) map[string]string {
	out := map[string]string{}
	for _, kv := range strings.Split(q, "&") {
		if kv == "" {
			continue
		}
		if i := strings.IndexByte(kv, '='); i >= 0 {
			out[kv[:i]] = kv[i+1:]
		} else {
			out[kv] = ""
		}
	}
	return out
}

func atoi(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}
