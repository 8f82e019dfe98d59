// Package browser implements the synthetic browser the crawler drives:
// it loads pages over real HTTP, parses them into DOM trees, executes the
// script DSL (producing dynamic inclusion chains), opens genuine
// WebSocket connections, and emits the devtools event stream the
// inclusion-tree builder consumes — mirroring how the paper instrumented
// stock Chrome through the Chrome Debugging Protocol (§3.1).
//
// It also hosts the extension layer. The webRequest bug is modeled at the
// version boundary: browsers with Version < 58 never dispatch WebSocket
// requests to extensions, exactly like Chromium issue 129353.
package browser

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/content"
	"repro/internal/detrand"
	"repro/internal/devtools"
	"repro/internal/dom"
	"repro/internal/faultnet"
	"repro/internal/htmlparse"
	"repro/internal/obs"
	"repro/internal/payload"
	"repro/internal/script"
	"repro/internal/slab"
	"repro/internal/urlutil"
	"repro/internal/webrequest"
	"repro/internal/wsproto"
)

// PatchedVersion is the Chrome release that fixed the webRequest bug.
const PatchedVersion = 58

// Depth caps on what one page may pull in: dynamic script inclusion
// chains and iframe nesting.
const (
	maxScriptDepth = 6
	maxFrameDepth  = 3
)

// Extension installs webRequest listeners into a browser.
type Extension interface {
	// Name identifies the extension in blocked-request events.
	Name() string
	// Install registers the extension's listeners.
	Install(reg *webrequest.Registry)
}

// SocketGuard is the optional content-script capability some blockers
// shipped as a WRB workaround (uBO-Extra, §2.3): a page-level wrapper
// around the WebSocket constructor that can veto a connection before
// the network stack — and therefore before the buggy webRequest gate —
// ever sees it. Extensions that implement it get consulted for every
// socket regardless of browser version.
type SocketGuard interface {
	// AllowSocket reports whether the page may open the socket. rule,
	// when non-empty, names the filter rule behind a veto.
	AllowSocket(pageURL, socketURL string) (allow bool, rule string)
}

// Config parameterizes a browser instance.
type Config struct {
	// Version is the Chrome version being modeled. Versions below 58
	// carry the webRequest bug.
	Version int
	// Seed drives the client profile and masking keys.
	Seed int64
	// HTTPClient performs resource fetches; it must route virtual hosts
	// (see webserver.Client). Required unless Fetch is set.
	HTTPClient *http.Client
	// Fetch, when set, performs resource fetches in-process instead of
	// through HTTPClient (see webserver.Fetch). The function must be
	// observationally identical to a wire fetch — same status, content
	// type, and body bytes — which internal/core's pipeline differential
	// test proves for the webserver implementation. The returned body
	// may alias server-owned bytes, and no one may write it after Fetch
	// returns it, the browser included: the browser parses documents and
	// scripts where they lie, and strings cut from a body — a link in a
	// crawler's frontier — can outlive the visit (bodyString). A wire
	// fetch meets the rule by construction: its bodies are io.ReadAll's.
	Fetch func(u *urlutil.URL, postBody []byte) (status int, contentType string, body []byte, err error)
	// ResolveWS maps host:port to a dial address for WebSockets
	// (see webserver.Resolver). Required for pages that open sockets.
	ResolveWS func(hostport string) string
	// DialWS, when set, opens the transport connection under each
	// WebSocket in place of a TCP dial to the resolved address — the
	// socket counterpart of Fetch (see webserver.DialSocket). The browser
	// still performs the whole RFC 6455 exchange over the returned conn.
	DialWS func(ctx context.Context, network, addr string) (net.Conn, error)
	// SocketTimeout bounds each WebSocket session: the dial, and then
	// each subsequent message send/receive (the deadline refreshes per
	// message, so long-lived sockets stay up while traffic flows).
	// Default 10s.
	SocketTimeout time.Duration

	// Fault, when enabled, degrades each logical connection this browser
	// opens, whichever transport carries it: every fetch
	// (faultnet.Exchange) and every WebSocket dial (faultnet.WrapConn).
	// Schedules derive from (FaultSeed, Seed, connection number), so a
	// crawl seed and fault seed reproduce them on the same connections.
	Fault     faultnet.Profile
	FaultSeed int64
	// DialRetries is the number of extra WebSocket dial attempts after
	// a transient dial failure (default 0: single attempt). Attempts
	// back off exponentially from DialRetryBackoff (default 25ms) with
	// seeded jitter; the jitter RNG is separate from the behavioral
	// RNG, so enabling retries does not perturb fault-free crawls.
	DialRetries      int
	DialRetryBackoff time.Duration

	// ReuseScratch is read by nothing: every Browser reuses its
	// per-page storage (see PageResult). It stays declared only so
	// bench/ compiles until ROADMAP 1(b).
	ReuseScratch bool
}

// Browser is one browser instance (one synthetic user). It is not safe
// for concurrent Visit calls; crawl workers each own a Browser.
type Browser struct {
	cfg    Config
	reg    *webrequest.Registry
	guards []guardEntry
	state  *payload.ClientState
	rng    *rand.Rand
	// cookies maps registrable domains to this user's cookie string.
	cookies map[string]string

	// connSeq numbers fetches and transport dials (retries included) so
	// per-connection fault seeds are stable; backoffRng jitters dial-retry
	// backoff. Both stay outside b.rng's stream: they draw nothing unless
	// faults are on or a dial fails, keeping fault-free crawls unchanged.
	connSeq    int64
	backoffRng *rand.Rand

	// scratch is the reused per-page storage, which the first Visit
	// takes from scratchPool (or makes) and Release gives back. Browsers
	// are single-visit-at-a-time, so the scratch needs no lock.
	scratch *visitScratch
}

// visitScratch is one browser's reusable per-page storage. Everything
// here is recycled by begin() at the top of each Visit; see PageResult
// for the ownership contract.
type visitScratch struct {
	trace  devtools.Trace
	alloc  devtools.IDAllocator
	load   pageLoad
	result PageResult
	seen   map[string]bool // extractLinks dedup, cleared per page
	// dom holds the page's documents, its frames' included; urls holds
	// every URL the page parsed or resolved.
	dom  htmlparse.Arena
	urls slab.Slab[urlutil.URL]

	// headerMaps is the arena of request-header maps handed out this
	// page; maps are retained inside trace events until the next page's
	// begin(), then cleared and reused.
	headerMaps []map[string]string
	headerUsed int

	// bytes holds the bytes the page sends and receives: beacon bodies,
	// socket frames sent, copies of frames received (appendBytes).
	// Trace events hold them until begin() rewinds it; nothing else
	// keeps them — the recorder copies what it keeps.
	bytes []byte
	// progs holds the page's decoded script programs.
	progs script.Scratch
	// refs holds the URLs the page resolved from relative references.
	// Links among them reach a crawler's frontier, so its chunks are
	// never rewritten (slab.Text).
	refs slab.Text
}

// Visit byte-buffer sizes: the buffer starts at visitBytes, and begin()
// drops one a page grew past maxVisitBytes (a large DOM exfiltration)
// rather than pin it for the rest of a crawl.
const (
	visitBytes    = 4 << 10
	maxVisitBytes = 64 << 10
)

func newVisitScratch() *visitScratch { return &visitScratch{seen: map[string]bool{}} }

// begin recycles the scratch for a new page load and returns its
// embedded pageLoad, wired to the reused trace and allocator. It also
// drops the browser's pointer to the last page's document, whose nodes
// the arena is about to hand out again.
func (s *visitScratch) begin(b *Browser, ctx context.Context, rawURL string) *pageLoad {
	s.trace.Reset()
	s.alloc.Reset()
	s.dom.Reset()
	s.urls.Reset()
	b.state.DOMSource = nil
	s.headerUsed = 0
	if cap(s.bytes) > maxVisitBytes || s.bytes == nil {
		s.bytes = make([]byte, 0, visitBytes)
	}
	s.bytes = s.bytes[:0]
	s.progs.Reset()
	clear(s.seen)
	links := s.result.Links
	clear(links)
	s.result = PageResult{URL: rawURL, Trace: &s.trace, Links: links[:0]}
	s.load = pageLoad{b: b, ctx: ctx, alloc: &s.alloc, result: &s.result}
	return &s.load
}

// parseURL parses raw into the page's URL slab.
func (l *pageLoad) parseURL(raw string) (*urlutil.URL, error) {
	u := l.b.scratch.urls.New()
	if err := urlutil.ParseInto(u, raw); err != nil {
		return nil, err
	}
	return u, nil
}

// resolve resolves href against base into the page's URL slab: an
// absolute URL passes through, and a path-absolute or relative
// reference's absolute form (appendRef) is built in the page's refs.
func (l *pageLoad) resolve(base *urlutil.URL, href string) (*urlutil.URL, error) {
	if hasScheme(href) {
		return l.parseURL(href)
	}
	t := &l.b.scratch.refs
	b := t.Grow(len(base.Scheme) + len("://:") + len(base.Host) + len(base.Port) + len(base.Path) + len(href))
	return l.parseURL(t.Take(appendRef(b, base, href)))
}

// appendBytes appends to the page's byte buffer whatever fill appends to
// it, and returns those bytes, capped so that an append to them moves
// them off the buffer instead of overwriting what follows.
func (l *pageLoad) appendBytes(fill func(dst []byte) []byte) []byte {
	s := l.b.scratch
	start := len(s.bytes)
	s.bytes = fill(s.bytes)
	return s.bytes[start:len(s.bytes):len(s.bytes)]
}

// bodyString returns a response body as a string that shares the body's
// bytes, so that a document or script is parsed where it lies. That is
// sound only because no one writes a body once Fetch or the wire has
// returned it (Config.Fetch): strings cut from it can outlive the
// visit, and bodies are never recycled.
func bodyString(body []byte) string {
	if len(body) == 0 {
		return ""
	}
	return unsafe.String(&body[0], len(body))
}

// header hands out a request-header map: a cleared map from the page's
// arena.
func (b *Browser) header() map[string]string {
	s := b.scratch
	if s.headerUsed == len(s.headerMaps) {
		s.headerMaps = append(s.headerMaps, make(map[string]string, 3))
	}
	m := s.headerMaps[s.headerUsed]
	s.headerUsed++
	clear(m)
	return m
}

// guardEntry pairs a SocketGuard with its extension name for blocked
// events.
type guardEntry struct {
	name  string
	guard SocketGuard
}

// New builds a browser with the given extensions installed. The
// webRequest bug is armed automatically for versions before 58.
func New(cfg Config, exts ...Extension) *Browser {
	if cfg.SocketTimeout == 0 {
		cfg.SocketTimeout = 10 * time.Second
	}
	if cfg.DialRetryBackoff == 0 {
		cfg.DialRetryBackoff = 25 * time.Millisecond
	}
	rng := detrand.New(cfg.Seed)
	b := &Browser{
		cfg:     cfg,
		reg:     webrequest.NewRegistry(cfg.Version >= PatchedVersion),
		state:   payload.NewClientState(rng),
		rng:     rng,
		cookies: map[string]string{},
		backoffRng: detrand.New(
			faultnet.DeriveSeed(cfg.FaultSeed, cfg.Seed, 0x7e77)),
	}
	for _, ext := range exts {
		ext.Install(b.reg)
		if g, ok := ext.(SocketGuard); ok {
			b.guards = append(b.guards, guardEntry{name: ext.Name(), guard: g})
		}
	}
	return b
}

// scratchPool holds the per-visit storage of released browsers, so that
// the next browser's pages recycle what earlier pages grew instead of
// growing their own: a crawl makes one browser per site.
var scratchPool sync.Pool

// Release gives the browser's per-visit storage back for another
// browser's visits to recycle. Every PageResult the browser returned is
// invalid after it; a later Visit takes storage again. A crawl releases
// each site's browser once the site is done.
func (b *Browser) Release() {
	if b.scratch != nil {
		b.state.DOMSource = nil
		scratchPool.Put(b.scratch)
		b.scratch = nil
	}
}

// PageResult is the outcome of one page load. The browser reuses its
// per-page storage — the trace and its event slabs, the ID allocator,
// the request-header maps, the DOM arena, the parsed URLs and the link
// list — so a PageResult, its Document, its Trace's events and their
// parsed URLs, bodies and Links included, is valid only until the next
// Visit on the same Browser, or its Release. The crawler honours that
// window: links are copied and OnPage completes before the next visit.
// A caller that keeps a result past it copies what it keeps, or visits
// with a browser of its own.
type PageResult struct {
	// URL is the page's URL.
	URL string
	// Document is the parsed DOM of the top-level frame.
	Document *dom.Node
	// Trace is the devtools event log of the entire load.
	Trace *devtools.Trace
	// Links are same-site links found on the page, absolutized.
	Links []string
	// Blocked counts requests cancelled by extensions.
	Blocked int
	// NetErrors counts failed fetches.
	NetErrors int
}

// pageLoad carries per-load state.
type pageLoad struct {
	b       *Browser
	ctx     context.Context
	alloc   *devtools.IDAllocator
	result  *PageResult
	pageURL *urlutil.URL
	doc     *dom.Node
}

// Visit loads a page and everything it includes, returning the DOM, the
// trace, and the extracted links, valid until the next Visit or
// Release.
func (b *Browser) Visit(ctx context.Context, rawURL string) (*PageResult, error) {
	if b.scratch == nil {
		b.scratch, _ = scratchPool.Get().(*visitScratch)
		if b.scratch == nil {
			b.scratch = newVisitScratch()
		}
	}
	load := b.scratch.begin(b, ctx, rawURL)
	u, err := load.parseURL(rawURL)
	if err != nil {
		return nil, err
	}
	load.pageURL = u
	frameID := load.alloc.NextFrame()
	load.result.Trace.Record(&devtools.FrameNavigated{FrameID: frameID, URL: rawURL, Initiator: devtools.ParserInitiator(frameID), Parsed: u})

	doc, ok := load.fetchDocument(frameID, u, devtools.ParserInitiator(frameID))
	if !ok {
		return load.result, fmt.Errorf("browser: failed to load document %s", rawURL)
	}
	load.doc = doc
	load.result.Document = doc
	// Session-replay DOM exfiltration serializes the live document.
	b.state.DOMSource = func() string { return doc.OuterHTML() }
	load.processDocument(frameID, u, doc, 0)
	load.extractLinks(doc)
	return load.result, nil
}

// fetchDocument gates, fetches, and parses an HTML document.
func (l *pageLoad) fetchDocument(frameID devtools.FrameID, u *urlutil.URL, init devtools.Initiator) (*dom.Node, bool) {
	fetchSpan := obs.StartSpan(obs.StageFetch)
	body, _, ok := l.request(u, devtools.ResourceDocument, frameID, init, "", nil)
	fetchSpan.End()
	if !ok {
		return nil, false
	}
	parseSpan := obs.StartSpan(obs.StageParse)
	doc := l.b.scratch.dom.Parse(bodyString(body))
	parseSpan.End()
	return doc, true
}

// processDocument walks a parsed document in order, loading subresources
// and executing scripts.
func (l *pageLoad) processDocument(frameID devtools.FrameID, docURL *urlutil.URL, doc *dom.Node, frameDepth int) {
	doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		switch n.Tag {
		case "script":
			if src := n.Attr("src"); src != "" {
				l.loadScript(frameID, docURL, src, devtools.ParserInitiator(frameID), 0)
			} else if body := n.InnerText(); strings.TrimSpace(body) != "" {
				l.runScriptBody(frameID, docURL, docURL.String()+"#inline", docURL, body, devtools.ParserInitiator(frameID), 0, true)
			}
		case "img":
			if src := n.Attr("src"); src != "" {
				if u, err := l.resolve(docURL, src); err == nil {
					l.request(u, devtools.ResourceImage, frameID, devtools.ParserInitiator(frameID), "", nil)
				}
			}
		case "link":
			if n.Attr("rel") == "stylesheet" {
				if u, err := l.resolve(docURL, n.Attr("href")); err == nil {
					l.request(u, devtools.ResourceStylesheet, frameID, devtools.ParserInitiator(frameID), "", nil)
				}
			}
		case "iframe":
			if src := n.Attr("src"); src != "" {
				l.loadFrame(frameID, docURL, src, devtools.ParserInitiator(frameID), frameDepth)
			}
		}
		return true
	})
}

// loadFrame loads an iframe document and processes it recursively.
func (l *pageLoad) loadFrame(parentFrame devtools.FrameID, baseURL *urlutil.URL, src string, init devtools.Initiator, depth int) {
	if depth >= maxFrameDepth {
		return
	}
	u, err := l.resolve(baseURL, src)
	if err != nil {
		return
	}
	body, _, ok := l.request(u, devtools.ResourceSubFrame, parentFrame, init, "", nil)
	if !ok {
		return
	}
	childID := l.alloc.NextFrame()
	l.result.Trace.Record(&devtools.FrameNavigated{
		FrameID: childID, ParentFrameID: parentFrame, URL: u.String(), Initiator: init, Parsed: u,
	})
	l.processDocument(childID, u, l.b.scratch.dom.Parse(bodyString(body)), depth+1)
}

// loadScript fetches a remote script, emits scriptParsed, and executes
// its program if it carries one.
func (l *pageLoad) loadScript(frameID devtools.FrameID, baseURL *urlutil.URL, src string, init devtools.Initiator, depth int) {
	if depth >= maxScriptDepth {
		return
	}
	u, err := l.resolve(baseURL, src)
	if err != nil {
		return
	}
	body, _, ok := l.request(u, devtools.ResourceScript, frameID, init, "", nil)
	if !ok {
		return
	}
	l.runScriptBody(frameID, baseURL, u.String(), u, bodyString(body), init, depth, false)
}

// runScriptBody registers the script with the debugger domain and
// executes its embedded program. parsed is url parsed — for an inline
// script, whose url is its document's plus "#inline", the document's.
func (l *pageLoad) runScriptBody(frameID devtools.FrameID, baseURL *urlutil.URL, url string, parsed *urlutil.URL, body string, init devtools.Initiator, depth int, inline bool) {
	scriptID := l.alloc.NextScript()
	l.result.Trace.Record(&devtools.ScriptParsed{
		ScriptID: scriptID, URL: url, FrameID: frameID, Initiator: init, Inline: inline, Parsed: parsed,
	})
	prog, err := l.b.scratch.progs.Decode(body)
	if err != nil || prog == nil {
		return
	}
	self := devtools.ScriptInitiator(scriptID)
	for _, op := range prog.Ops {
		switch op.Do {
		case script.OpIncludeScript:
			l.loadScript(frameID, baseURL, op.URL, self, depth+1)
		case script.OpLoadImage:
			if u, err := l.resolve(baseURL, op.URL); err == nil {
				l.request(u, devtools.ResourceImage, frameID, self, "", nil)
			}
		case script.OpHTTPBeacon:
			l.sendBeacon(frameID, baseURL, op, self)
		case script.OpInsertIframe:
			l.loadFrame(frameID, baseURL, op.URL, self, 0)
		case script.OpOpenWebSocket:
			l.openWebSocket(frameID, op, self)
		}
	}
}

// sendBeacon POSTs synthesized tracking data over HTTP (type XHR).
func (l *pageLoad) sendBeacon(frameID devtools.FrameID, baseURL *urlutil.URL, op script.Op, init devtools.Initiator) {
	u, err := l.resolve(baseURL, op.URL)
	if err != nil {
		return
	}
	body := l.appendBytes(func(dst []byte) []byte {
		for i, spec := range op.Send {
			if i > 0 {
				dst = append(dst, '&')
			}
			dst = l.b.appendMessage(dst, spec)
		}
		return dst
	})
	if len(body) == 0 {
		body = nil // a beacon with nothing to send is a GET
	}
	cookie := ""
	if op.SendCookie {
		cookie = l.b.cookieFor(u.RegistrableDomain())
	}
	l.request(u, devtools.ResourceXHR, frameID, init, cookie, body)
}

// request gates one HTTP request through the extension layer, performs
// it, and emits the network events. It returns the response body.
func (l *pageLoad) request(u *urlutil.URL, typ devtools.ResourceType, frameID devtools.FrameID, init devtools.Initiator, cookie string, postBody []byte) ([]byte, int, bool) {
	reqID := l.alloc.NextRequest()
	rawURL, pageURL := u.String(), l.pageURL.String()
	obs.BrowserRequests.Inc()
	verdict := l.b.reg.Dispatch(webrequest.Details{
		RequestID:     string(reqID),
		URL:           rawURL,
		Type:          typ,
		FrameID:       frameID,
		FirstPartyURL: pageURL,
		Parsed:        u,
		FirstParty:    l.pageURL,
	})
	if verdict.Cancelled {
		l.result.Blocked++
		obs.BrowserBlocked.Inc()
		l.result.Trace.Record(&devtools.RequestBlocked{
			RequestID: reqID, URL: rawURL, Type: typ, FrameID: frameID,
			Initiator: init, Extension: verdict.Extension, Rule: verdict.Rule,
		})
		return nil, 0, false
	}
	// Plain subresource loads go to cookieless CDN hosts; only
	// explicit tracking requests (beacons, sockets) carry cookies.
	header := l.b.header()
	header["User-Agent"] = l.b.state.UserAgent
	if cookie != "" {
		header["Cookie"] = cookie
	}
	header["Referer"] = pageURL
	l.result.Trace.Record(&devtools.RequestWillBeSent{
		RequestID: reqID, URL: rawURL, Type: typ, FrameID: frameID,
		Initiator: init, FirstPartyURL: pageURL, Header: header, Body: postBody, Parsed: u,
	})
	status, mime, body, err := l.b.doHTTP(l.ctx, u, header, postBody)
	if err == nil && l.b.cfg.Fault.Enabled() {
		err = faultnet.Exchange(l.ctx, l.b.cfg.Fault, l.b.nextConnSeed(), len(postBody), len(body))
	}
	if err != nil {
		l.result.NetErrors++
		return nil, 0, false
	}
	respBody := body
	if typ == devtools.ResourceImage || typ == devtools.ResourceStylesheet {
		// Bodies of bulk media are classified but not retained in full.
		if len(respBody) > 256 {
			respBody = respBody[:256]
		}
	}
	l.result.Trace.Record(&devtools.ResponseReceived{
		RequestID: reqID, URL: rawURL, Status: status, MimeType: mime,
		BodySize: len(body), Body: respBody,
	})
	return body, status, status >= 200 && status < 400
}

// nextConnSeed numbers the browser's next logical connection and
// returns its fault seed. Visits are sequential per browser, so the
// schedules do not depend on goroutine timing.
func (b *Browser) nextConnSeed() int64 {
	b.connSeq++
	return faultnet.DeriveSeed(b.cfg.FaultSeed, b.cfg.Seed, b.connSeq)
}

func (b *Browser) doHTTP(ctx context.Context, u *urlutil.URL, header map[string]string, postBody []byte) (int, string, []byte, error) {
	if b.cfg.Fetch != nil {
		return b.cfg.Fetch(u, postBody)
	}
	method := http.MethodGet
	var bodyReader io.Reader
	if postBody != nil {
		method = http.MethodPost
		bodyReader = strings.NewReader(string(postBody))
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), bodyReader)
	if err != nil {
		return 0, "", nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := b.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body, nil
}

// appendMessage appends one message spec's payload bytes to dst.
func (b *Browser) appendMessage(dst []byte, spec script.MessageSpec) []byte {
	if spec.Text != "" {
		return append(dst, spec.Text...)
	}
	return payload.AppendSynthesize(dst, spec.Kinds, b.state, b.rng)
}

// cookieFor returns (creating if needed) this user's cookie string for a
// registrable domain.
func (b *Browser) cookieFor(domain string) string {
	if c, ok := b.cookies[domain]; ok {
		return c
	}
	c := fmt.Sprintf("uid=%08x; _sess=%08x", b.rng.Uint32(), b.rng.Uint32())
	b.cookies[domain] = c
	return c
}

// openWebSocket performs the full socket lifecycle for one
// open_websocket op: extension gate (subject to the WRB), handshake,
// message exchange, close — emitting the Network.webSocket* events.
func (l *pageLoad) openWebSocket(frameID devtools.FrameID, op script.Op, init devtools.Initiator) {
	u, err := l.parseURL(op.URL)
	if err != nil || !u.IsWebSocket() {
		return
	}
	sockID := l.alloc.NextSocket()
	rawURL, pageURL := u.String(), l.pageURL.String()

	// Content-script guards run inside the page, so they fire before —
	// and independently of — the webRequest layer: this is the uBO-Extra
	// mitigation that worked even while the WRB was live.
	for _, g := range l.b.guards {
		allow, rule := g.guard.AllowSocket(pageURL, rawURL)
		if !allow {
			l.result.Blocked++
			obs.SocketsBlocked.Inc()
			l.result.Trace.Record(&devtools.RequestBlocked{
				RequestID: devtools.RequestID(sockID), URL: rawURL,
				Type: devtools.ResourceWebSocket, FrameID: frameID,
				Initiator: init, Extension: g.name, Rule: rule,
			})
			return
		}
	}

	verdict := l.b.reg.Dispatch(webrequest.Details{
		RequestID:     string(sockID),
		URL:           rawURL,
		Type:          devtools.ResourceWebSocket,
		FrameID:       frameID,
		FirstPartyURL: pageURL,
		Parsed:        u,
		FirstParty:    l.pageURL,
	})
	if verdict.Cancelled {
		l.result.Blocked++
		obs.SocketsBlocked.Inc()
		l.result.Trace.Record(&devtools.RequestBlocked{
			RequestID: devtools.RequestID(sockID), URL: rawURL,
			Type: devtools.ResourceWebSocket, FrameID: frameID,
			Initiator: init, Extension: verdict.Extension, Rule: verdict.Rule,
		})
		return
	}

	obs.SocketsOpened.Inc()
	l.result.Trace.Record(&devtools.WebSocketCreated{
		SocketID: sockID, URL: rawURL, FrameID: frameID,
		Initiator: init, FirstPartyURL: pageURL, Parsed: u,
	})
	header := l.b.header()
	header["User-Agent"] = l.b.state.UserAgent
	header["Origin"] = l.pageURL.Origin()
	if op.SendCookie {
		header["Cookie"] = l.b.cookieFor(u.RegistrableDomain())
	}
	l.result.Trace.Record(&devtools.WebSocketWillSendHandshakeRequest{SocketID: sockID, Header: header})

	httpHeader := http.Header{}
	for k, v := range header {
		httpHeader.Set(k, v)
	}
	dialer := wsproto.Dialer{
		NetDial:     l.b.cfg.DialWS,
		ResolveAddr: l.b.cfg.ResolveWS,
		Rand:        l.b.rng,
		Header:      httpHeader,
	}
	if l.b.cfg.Fault.Enabled() {
		dialer.WrapConn = func(nc net.Conn) net.Conn {
			return faultnet.WrapConn(nc, l.b.cfg.Fault, l.b.nextConnSeed())
		}
	}
	conn, err := l.dialWebSocket(&dialer, rawURL)
	if err != nil {
		l.result.NetErrors++
		l.result.Trace.Record(&devtools.WebSocketHandshakeResponseReceived{SocketID: sockID, Status: 0})
		l.result.Trace.Record(&devtools.WebSocketClosed{SocketID: sockID, Code: wsproto.CloseAbnormal})
		return
	}
	defer conn.Close()
	l.result.Trace.Record(&devtools.WebSocketHandshakeResponseReceived{SocketID: sockID, Status: 101})

	// Every message send/receive below runs under a fresh SocketTimeout
	// deadline: the timeout bounds *inactivity*, not session length, so
	// a long-lived live-chat socket survives as long as traffic flows
	// while a wedged peer still fails within one timeout.
	idle := l.b.cfg.SocketTimeout

	// Send the script's messages.
	for _, spec := range op.Send {
		data := l.appendBytes(func(dst []byte) []byte { return l.b.appendMessage(dst, spec) })
		opcode := wsproto.OpText
		if spec.Binary {
			opcode = wsproto.OpBinary
		}
		_ = conn.SetWriteDeadline(time.Now().Add(idle))
		if err := conn.WriteMessage(opcode, data); err != nil {
			break
		}
		l.result.Trace.Record(&devtools.WebSocketFrameSent{SocketID: sockID, Opcode: int(opcode), Payload: data})
	}
	_ = conn.SetWriteDeadline(time.Time{})
	// Read the expected server pushes.
	var adRefs []content.AdRef
	for i := 0; i < op.Expect; i++ {
		_ = conn.SetReadDeadline(time.Now().Add(idle))
		opcode, msg, err := conn.ReadMessage()
		if err != nil {
			break
		}
		// ReadMessage returns a conn-owned buffer valid only until the
		// next read; the inclusion tree retains frame payloads for the
		// Table 5 content analysis, so the event gets a copy in the
		// page's byte buffer.
		msg = l.appendBytes(func(dst []byte) []byte { return append(dst, msg...) })
		l.result.Trace.Record(&devtools.WebSocketFrameReceived{SocketID: sockID, Opcode: int(opcode), Payload: msg})
		adRefs = append(adRefs, content.ExtractAdRefs(msg)...)
	}
	_ = conn.Close()
	l.result.Trace.Record(&devtools.WebSocketClosed{SocketID: sockID, Code: wsproto.CloseNormal})

	// The Lockerdome pattern: creatives referenced in socket responses
	// are fetched like any script-initiated image — and since the CDN
	// host is unlisted, blockers never see a reason to stop them.
	for _, ref := range adRefs {
		if au, err := l.parseURL(ref.ImageURL); err == nil {
			l.request(au, devtools.ResourceImage, frameID, init, "", nil)
		}
	}
}

// dialWebSocket performs the WebSocket handshake with up to DialRetries
// extra attempts on transient failure, backing off exponentially with
// seeded jitter between attempts. Each attempt runs under its own
// SocketTimeout; the page context bounds the whole loop, so retries
// never outlive the visit.
func (l *pageLoad) dialWebSocket(dialer *wsproto.Dialer, rawURL string) (*wsproto.Conn, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(l.ctx, l.b.cfg.SocketTimeout)
		conn, _, err := dialer.Dial(ctx, rawURL)
		cancel()
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if attempt >= l.b.cfg.DialRetries || l.ctx.Err() != nil {
			return nil, lastErr
		}
		obs.DialRetries.Inc()
		backoff := l.b.cfg.DialRetryBackoff << uint(attempt)
		backoff += time.Duration(l.b.backoffRng.Int63n(int64(backoff)))
		timer := time.NewTimer(backoff)
		select {
		case <-l.ctx.Done():
			timer.Stop()
			return nil, lastErr
		case <-timer.C:
		}
	}
}

// extractLinks collects same-site links from the document, in document
// order.
func (l *pageLoad) extractLinks(doc *dom.Node) {
	seen := l.b.scratch.seen // cleared by begin()
	doc.Walk(func(a *dom.Node) bool {
		if a.Type != dom.ElementNode || a.Tag != "a" {
			return true
		}
		href := a.Attr("href")
		if href == "" {
			return true
		}
		u, err := l.resolve(l.pageURL, href)
		if err != nil || !urlutil.SameParty(u.Host, l.pageURL.Host) {
			return true
		}
		if s := u.String(); !seen[s] {
			seen[s] = true
			l.result.Links = append(l.result.Links, s)
		}
		return true
	})
}

// appendRef appends the absolute form of href, a reference without a
// scheme, resolved against base.
func appendRef(dst []byte, base *urlutil.URL, href string) []byte {
	if strings.HasPrefix(href, "//") {
		return append(append(append(dst, base.Scheme...), ':'), href...)
	}
	dst = append(append(append(dst, base.Scheme...), "://"...), base.Host...)
	if base.Port != "" {
		dst = append(append(dst, ':'), base.Port...)
	}
	if strings.HasPrefix(href, "/") {
		return append(dst, href...)
	}
	// Relative reference: resolve against the base path's directory.
	dir := base.Path
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		dir = dir[:i+1]
	}
	return append(append(dst, dir...), href...)
}

// hasScheme reports whether href opens with scheme "://" — RFC 3986's
// ALPHA *( ALPHA / DIGIT / "+" / "-" / "." ). A "://" further in, past
// a '/', '?' or '#', belongs to a path or a query and makes nothing
// absolute.
func hasScheme(href string) bool {
	for i := 0; i < len(href); i++ {
		switch c := href[i]; {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case i > 0 && (c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.'):
		default:
			return i > 0 && strings.HasPrefix(href[i:], "://")
		}
	}
	return false
}
