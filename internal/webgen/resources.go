package webgen

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/detrand"
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
// same plan. RenderPage and the /js/app.js endpoint do not call it;
// they agree on a page through plan. PlanFor is a test oracle: it
// builds both halves at once, so tests can see what a page will load.
//
//lint:allow unusedapi test oracle: the tests of webgen, browser, webserver, script and the root benchmarks read page plans through it
func (w *World) PlanFor(pub *Publisher, page int) *PagePlan {
	pp := pagePlan{pb: new(progBuilder)}
	w.plan(pub, page, planProgram|planPage, &pp)
	prog := pp.pb.program()
	plan := &PagePlan{
		Title:      pub.Domain + " — " + pub.Category + " " + strconv.Itoa(page),
		AppProgram: &prog,
		ImagePaths: make([]string, 0, pp.images),
	}
	for i, c := range pub.Services {
		if pub.tagged[i] {
			plan.DirectURLs = append(plan.DirectURLs, w.scriptURL(c, pub, page))
		}
	}
	for _, c := range pp.iframes {
		plan.IframeURLs = append(plan.IframeURLs, c.pageURL("/frame.html?pub=", pub, page))
	}
	for k := 0; k < pp.images; k++ {
		plan.ImagePaths = append(plan.ImagePaths, string(appendImagePath(nil, page, k)))
	}
	if page == 0 {
		plan.LinkPaths = make([]string, 0, len(pp.links))
	}
	for _, n := range pp.links {
		plan.LinkPaths = append(plan.LinkPaths, string(appendLinkPath(nil, n)))
	}
	return plan
}

// progBuilder is the storage a program is built in: its ops, their
// message lists, and the bytes of the URLs they carry. A served program
// is encoded and then dropped, so the server builds each in a builder
// from progPool, which the next one reuses (serve, release); a program
// handed to a caller — PlanFor's — is built in a builder of its own.
type progBuilder struct {
	ops   []script.Op
	specs []script.MessageSpec
	text  []byte
}

// progPool recycles the builders of served programs.
var progPool sync.Pool

// newServeBuilder returns a builder from progPool, to be given back by
// serve.
func newServeBuilder() *progBuilder {
	if pb, ok := progPool.Get().(*progBuilder); ok {
		return pb
	}
	return new(progBuilder)
}

// program returns the program built so far; no ops is a nil list, as a
// program without ops has always been.
func (pb *progBuilder) program() script.Program {
	if len(pb.ops) == 0 {
		return script.Program{}
	}
	return script.Program{Ops: pb.ops}
}

// serve encodes the program as a script resource and releases the
// builder: nothing of the program outlives the encoding.
func (pb *progBuilder) serve() Resource {
	p := pb.program()
	res := jsResource(p.MustEncode())
	pb.release()
	return res
}

// release empties the builder and gives it back to progPool.
func (pb *progBuilder) release() {
	clear(pb.ops)
	clear(pb.specs)
	pb.ops, pb.specs, pb.text = pb.ops[:0], pb.specs[:0], pb.text[:0]
	progPool.Put(pb)
}

// str returns the bytes appended to pb.text since start as a string
// over them. pb.text only grows until serve, so the string holds until
// then; a builder that is never recycled never rewrites it.
func (pb *progBuilder) str(start int) string {
	if len(pb.text) == start {
		return ""
	}
	return unsafe.String(&pb.text[start], len(pb.text)-start)
}

// sends returns the message specs appended to pb.specs since start,
// capped so that nothing appended later lands in them; nil for none.
func (pb *progBuilder) sends(start int) []script.MessageSpec {
	if len(pb.specs) == start {
		return nil
	}
	return pb.specs[start:len(pb.specs):len(pb.specs)]
}

// planParts selects what plan builds of a page's plan.
type planParts uint8

const (
	// planProgram is the first-party script's program: /js/app.js.
	planProgram planParts = 1 << iota
	// planPage is what only the HTML references: ad-slot iframes,
	// images and links.
	planPage
)

// pagePlan is PlanFor's working form. The references a page makes are
// held as the companies and numbers they are written from, so RenderPage
// appends each straight into the page; the script tags are the
// publisher's tagged services.
type pagePlan struct {
	pb      *progBuilder // what the program is built in
	iframes []*Company   // ad-slot iframes, one per company
	images  int          // first-party images /img/<page>-<k>.gif, k < images
	links   []int        // linked pages in order: n for /page/<n>, 0 for /
}

// plan computes the parts of page n's plan that want names, the program
// in pp.pb. It is the one definition of a page: every part is drawn from
// the same generator in the same order whatever is built, so
// /js/app.js, which builds only the program, and RenderPage, which
// builds only the page, agree with PlanFor, which builds both.
func (w *World) plan(pub *Publisher, page int, want planParts, pp *pagePlan) {
	pg := strconv.Itoa(page)
	rng := w.rng("plan", pub.Domain, pg)
	pb := pp.pb

	// Third-party placements: stable per site, split between direct
	// HTML tags and dynamic inclusion by the first-party script.
	for i, c := range pub.Services {
		if !pub.tagged[i] && want&planProgram != 0 {
			start := len(pb.text)
			pb.text = c.appendPageURL(pb.text, "/w.js?pub=", pub, pg)
			pb.ops = append(pb.ops, script.Include(pb.str(start)))
		}
		// Full-blocked ad companies also render iframe ad slots.
		if c.EasyList && !c.PartialRules && c.Category != CatAnalytics && rng.Float64() < 0.5 && want&planPage != 0 {
			pp.iframes = append(pp.iframes, c)
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
			op := w.socketOp(c, c.Domain, &rng, pb)
			if want&planProgram != 0 {
				pb.ops = append(pb.ops, op)
			}
		}
	}

	// Publisher-hosted sockets (games, dashboards): same-origin,
	// non-A&A on both ends.
	if pub.SelfWS && rng.Float64() < 0.7 {
		n := 1 + rng.Intn(2)
		sid := rng.Uint32()
		if want&planProgram != 0 {
			start := len(pb.text)
			pb.text = appendSocketURL(pb.text, pub.Domain, "/live", sid, n)
			pb.ops = append(pb.ops, script.Op{
				Do: script.OpOpenWebSocket, URL: pb.str(start), Send: uaOnly, Expect: n,
			})
		}
	}
	if want&planPage == 0 {
		return // nothing past here reaches the program
	}

	// Page furniture.
	pp.images = 2 + rng.Intn(4)
	if page == 0 {
		pp.links = make([]int, 0, pub.NumPages)
		for n := 1; n <= pub.NumPages; n++ {
			pp.links = append(pp.links, n)
		}
		return
	}
	pp.links = make([]int, 0, 5)
	for k := 0; k < 4 && len(pp.links)+1 <= pub.NumPages; k++ {
		n := 1 + rng.Intn(pub.NumPages)
		if n != page && !slices.Contains(pp.links, n) {
			pp.links = append(pp.links, n)
		}
	}
	pp.links = append(pp.links, 0)
}

// appendImagePath appends /img/<page>-<k>.gif.
func appendImagePath(b []byte, page, k int) []byte {
	b = strconv.AppendInt(append(b, "/img/"...), int64(page), 10)
	return append(strconv.AppendInt(append(b, '-'), int64(k), 10), ".gif"...)
}

// appendLinkPath appends /page/<n>, or / for n = 0.
func appendLinkPath(b []byte, n int) []byte {
	if n == 0 {
		return append(b, '/')
	}
	return strconv.AppendInt(append(b, "/page/"...), int64(n), 10)
}

// scriptURL builds a company's widget-script URL for one page. The pg
// parameter makes behaviour page-specific while remaining cacheable in
// shape, the way real tags carry cache-busting parameters.
func (w *World) scriptURL(c *Company, pub *Publisher, page int) string {
	return c.pageURL("/w.js?pub=", pub, page)
}

// Message lists programs share: programs are encoded or read, never
// edited.
var (
	uaOnly      = []script.MessageSpec{{Kinds: []string{payload.KindUA}}}
	binaryKinds = []string{payload.KindBinary}
)

// pageURL is http://<script host><path><publisher>&pg=<page>: the shape
// of every per-page URL a company serves.
func (c *Company) pageURL(path string, pub *Publisher, page int) string {
	var buf [128]byte
	return string(c.appendPageURL(buf[:0], path, pub, strconv.Itoa(page)))
}

// appendPageURL appends pageURL's URL, with the page number in decimal.
func (c *Company) appendPageURL(b []byte, path string, pub *Publisher, pg string) []byte {
	sub, domain := c.scriptHostParts()
	return cat(b, "http://", sub, domain, path, pub.Domain, "&pg=", pg)
}

// appendSocketURL appends ws://<host><path>?sid=<%08x of sid>&n=<n>.
func appendSocketURL(b []byte, host, path string, sid uint32, n int) []byte {
	b = appendPadded(cat(b, "ws://", host, path, "?sid="), uint64(sid), 16, 8)
	return strconv.AppendInt(append(b, "&n="...), int64(n), 10)
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

// socketOp builds, in pb, an open_websocket op targeting the given
// receiver domain on behalf of company c. Its message specs share the
// company's kind lists: programs are encoded or read, never edited.
func (w *World) socketOp(c *Company, receiverDomain string, rng *detrand.Rand, pb *progBuilder) script.Op {
	path, n := w.endpointFor(receiverDomain, rng)
	start := len(pb.text)
	pb.text = appendSocketURL(pb.text, receiverDomain, path, rng.Uint32(), n)
	op := script.Op{Do: script.OpOpenWebSocket, URL: pb.str(start), Expect: n}
	sends := len(pb.specs)
	if rng.Float64() >= c.SendNothing {
		for _, kinds := range c.SendKinds {
			pb.specs = append(pb.specs, script.MessageSpec{Kinds: kinds})
		}
		// Receivers that harvest fingerprints get the full bundle from
		// every A&A script that connects (the DoubleClick → 33across
		// flow of §4.3).
		if rc := w.companyByDomain[urlutil.RegistrableDomain(receiverDomain)]; rc != nil && rc.CollectsFingerprint && c.AA {
			pb.specs = append(pb.specs, script.MessageSpec{Kinds: payload.FingerprintKinds})
		}
		if c.SendBinary > 0 && rng.Float64() < c.SendBinary {
			pb.specs = append(pb.specs, script.MessageSpec{Kinds: binaryKinds, Binary: true})
		}
	}
	op.Send = pb.sends(sends)
	op.SendCookie = rng.Float64() < c.CookieProb
	return op
}

// endpointFor returns the WebSocket path and the number of messages the
// endpoint will push for this connection.
func (w *World) endpointFor(receiverDomain string, rng *detrand.Rand) (string, int) {
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

// buildCompanyProgram builds, in pb, the behaviour program for a
// company's widget script on one page of one publisher.
func (w *World) buildCompanyProgram(c *Company, pub *Publisher, page int, pb *progBuilder) {
	pg := strconv.Itoa(page)
	rng := w.rng("cw", pub.Domain, pg, c.Domain)

	// Ordinary HTTP tracking: beacons and pixels (Table 5's HTTP/S
	// comparison columns). The mostly-clean CDN fires its tracked
	// beacon too rarely to clear the 10% labeling threshold (and never
	// on shallow pages, so small crawls cannot mislabel it by sampling
	// luck).
	fire := true
	if c.Domain == "mostlyclean-cdn.net" {
		fire = page == 7 && rng.Intn(2) == 0
	}
	if fire && len(c.beacons) > 0 {
		start := len(pb.text)
		pb.text = c.appendPageURL(pb.text, "/track/b?pub=", pub, pg)
		url := pb.str(start)
		for i := range c.beacons {
			pb.ops = append(pb.ops, script.Op{
				Do:         script.OpHTTPBeacon,
				URL:        url,
				Send:       c.beacons[i : i+1 : i+1],
				SendCookie: rng.Float64() < 0.5,
			})
		}
	}
	if c.HTTPPresence {
		start := len(pb.text)
		sub, domain := c.scriptHostParts()
		pb.text = cat(pb.text, "http://", sub, domain, "/pixel.gif?pub=", pub.Domain, "&r=")
		pb.text = appendPadded(pb.text, uint64(rng.Intn(1_000_000)), 10, 6)
		pb.ops = append(pb.ops, script.Image(pb.str(start)))
	}
	// The borderline CDN fires a tracked beacon on every page so it
	// clears the threshold despite serving mostly clean resources.
	if c.Domain == "borderline-cdn.com" {
		start := len(pb.text)
		sub, domain := c.scriptHostParts()
		pb.text = strconv.AppendInt(cat(pb.text, "http://", sub, domain, "/lib/asset-"), int64(rng.Intn(8)), 10)
		pb.text = append(pb.text, ".gif"...)
		pb.ops = append(pb.ops, script.Image(pb.str(start)))
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
					pb.ops = append(pb.ops, w.socketOp(c, r2, &rng, pb))
				}
			}
			pb.ops = append(pb.ops, w.socketOp(c, receiver, &rng, pb))
		}
	}
}

// GetURL resolves an absolute http:// URL to a servable resource. The
// second return is false for hosts/paths outside the world. It takes
// the URL parsed, as the in-process Fetch plane holds it, sparing the
// round-trip through String and re-Parse. u is treated as read-only. A
// rendered resource's body is fresh; a static one's (images, the
// stylesheet, acknowledgements, not found) is shared by every caller,
// and no one writes it.
func (w *World) GetURL(u *urlutil.URL) (Resource, bool) {
	if u.IsWebSocket() {
		return Resource{}, false
	}
	if pub := w.pubByDomain[u.Host]; pub != nil {
		return w.publisherResource(pub, u), true
	}
	if c := w.CompanyByHost(u.Host); c != nil {
		return w.companyResource(c, u), true
	}
	return Resource{}, false
}

func (w *World) publisherResource(pub *Publisher, u *urlutil.URL) Resource {
	switch {
	case u.Path == "/":
		return htmlResource(w.RenderPage(pub, 0))
	case strings.HasPrefix(u.Path, "/page/"):
		n := atoi(strings.TrimPrefix(u.Path, "/page/"))
		if n < 1 || n > pub.NumPages {
			return notFound
		}
		return htmlResource(w.RenderPage(pub, n))
	case u.Path == "/js/app.js":
		pp := pagePlan{pb: newServeBuilder()}
		w.plan(pub, atoi(queryParam(u.Query, "pg")), planProgram, &pp)
		return pp.pb.serve()
	case strings.HasPrefix(u.Path, "/img/"):
		return pixelGIF
	case u.Path == "/css/site.css":
		return siteCSS
	}
	return notFound
}

func (w *World) companyResource(c *Company, u *urlutil.URL) Resource {
	switch {
	case u.Path == "/w.js":
		pub := w.pubByDomain[queryParam(u.Query, "pub")]
		if pub == nil {
			return noopJS
		}
		pb := newServeBuilder()
		w.buildCompanyProgram(c, pub, atoi(queryParam(u.Query, "pg")), pb)
		return pb.serve()
	case u.Path == "/pixel.gif":
		return pixelGIF
	case strings.HasPrefix(u.Path, "/track/"):
		// Beacon endpoints usually acknowledge with an empty body, but
		// some return small JSON configs (Table 5's HTTP JSON slice).
		if len(u.Query)%6 == 0 {
			return trackJSON
		}
		return trackEmpty
	case u.Path == "/frame.html":
		rng := w.rng("frame", u.Host, u.Query)
		sub, domain := c.scriptHostParts()
		body := cat(make([]byte, 0, 192), `<!DOCTYPE html><html><head><title>ad</title></head><body class="ad">`,
			`<img src="http://`, sub, domain, "/pixel.gif?f=1&r=")
		body = appendPadded(body, uint64(rng.Intn(1_000_000)), 10, 6)
		return htmlResource(cat(body, `"><p>Sponsored content</p></body></html>`))
	case strings.HasPrefix(u.Path, "/img/"):
		// Ad creatives on the company's CDN host (cdn1.lockerdome.com):
		// a JPEG signature plus filler.
		return adJPEG
	case strings.HasPrefix(u.Path, "/lib/"):
		return pixelGIF
	}
	return notFound
}

// RenderPage renders the HTML for page n of a publisher.
func (w *World) RenderPage(pub *Publisher, page int) []byte {
	pp := pagePlan{pb: newServeBuilder()}
	w.plan(pub, page, planPage, &pp)
	pp.pb.release() // what went in is the program's, which a page does not show
	pg := strconv.Itoa(page)
	rng := w.rng("text", pub.Domain, pg)
	title := [...]string{pub.Domain, " — ", pub.Category, " ", pg}

	// Rendered in a pooled buffer and returned as a copy of its own
	// length: the body outlives this call in the visit's trace, so room
	// to spare would be kept with it.
	buf, _ := renderBufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	defer renderBufs.Put(buf)
	b := (*buf)[:0]
	b = cat(b, "<!DOCTYPE html>\n<html>\n<head>\n<title>")
	b = cat(cat(b, title[:]...), "</title>\n",
		`<link rel="stylesheet" href="/css/site.css">`+"\n",
		`<script src="http://`, pub.Domain, "/js/app.js?pg=", pg, `"></script>`+"\n")
	for i, c := range pub.Services {
		if pub.tagged[i] {
			b = cat(c.appendPageURL(append(b, `<script src="`...), "/w.js?pub=", pub, pg), `"></script>`+"\n")
		}
	}
	b = cat(cat(b, "</head>\n<body>\n<h1>"), title[:]...)
	b = cat(b, "</h1>\n",
		`<form action="/search"><input name="q" placeholder="Search `, pub.Domain, `"></form>`+"\n")
	for i := 0; i < 3; i++ {
		b = cat(b, "<p>", pageSentences[rng.Intn(len(pageSentences))], "</p>\n")
	}
	for k := 0; k < pp.images; k++ {
		b = cat(appendImagePath(append(b, `<img src="`...), page, k), `" alt="photo">`+"\n")
	}
	for _, c := range pp.iframes {
		b = c.appendPageURL(append(b, `<iframe src="`...), "/frame.html?pub=", pub, pg)
		b = cat(b, `" width="300" height="250"></iframe>`+"\n")
	}
	b = cat(b, "<nav>\n")
	for i, n := range pp.links {
		b = strconv.AppendInt(append(appendLinkPath(append(b, `<a href="`...), n), `">link `...), int64(i), 10)
		b = cat(b, "</a>\n")
	}
	b = cat(b, "</nav>\n</body>\n</html>\n")
	if cap(b) <= maxRenderBuf {
		*buf = b
	}
	return bytes.Clone(b)
}

// renderBufs recycles RenderPage's buffers; one that grew past
// maxRenderBuf is dropped rather than kept.
var renderBufs sync.Pool

const maxRenderBuf = 64 << 10

var pageSentences = []string{
	"The committee will meet again next week to review the findings.",
	"Local startups report a surge in interest following the announcement.",
	"Analysts remain divided over the long-term implications.",
	"Readers shared hundreds of comments within the first hour.",
	"A follow-up piece with expanded interviews is planned.",
	"The archive contains material going back more than a decade.",
}

func htmlResource(body []byte) Resource {
	return Resource{Status: 200, ContentType: "text/html; charset=utf-8", Body: body}
}

func jsResource(body []byte) Resource {
	return Resource{Status: 200, ContentType: "application/javascript", Body: body}
}

// The static resources, rendered once. Servers hand their bodies out by
// reference; every consumer (wire writes, the in-process Fetch plane,
// the browser) treats resource bodies as read-only.
var (
	pixelGIF   = Resource{Status: 200, ContentType: "image/gif", Body: payload.PixelGIF()}
	adJPEG     = Resource{Status: 200, ContentType: "image/jpeg", Body: append([]byte("\xFF\xD8\xFF\xE0\x00\x10JFIF\x00"), []byte(strings.Repeat("ad", 64))...)}
	siteCSS    = Resource{Status: 200, ContentType: "text/css", Body: []byte("body{font-family:sans-serif;margin:2em}.ad{border:1px solid #ccc}")}
	noopJS     = jsResource([]byte("/* no-op */function noop(){}"))
	trackJSON  = Resource{Status: 200, ContentType: "application/json", Body: []byte(`{"ok":true,"sampled":false}`)}
	trackEmpty = Resource{Status: 204, ContentType: "text/plain"}
	notFound   = Resource{Status: 404, ContentType: "text/plain", Body: []byte("not found")}
)

// queryParam returns the value of key in a raw query string without
// allocating. The last occurrence of a key wins.
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
