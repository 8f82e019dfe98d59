// Package webserver serves a webgen.World: every publisher and company
// host is virtual-hosted on one server (selected by the Host header, the
// way a DNS override would), and WebSocket endpoints complete genuine
// RFC 6455 handshakes via internal/wsproto.
//
// A request reaches the server over one of three transports. The wire —
// a real loopback TCP listener behind net/http (Addr, Client, Resolver)
// — carries HTTP and WebSockets for the reference plane, cmd/wsload and
// any external client. A crawl goes in-process instead, faulted or not
// (a faulted crawl's browser draws its faults itself, per connection):
// Fetch answers an HTTP request and DialSocket opens a WebSocket without
// touching the kernel or net/http. The rule is that how a request was
// carried never changes its answer, and it holds by construction: one
// function, route, decides which host, which path, 404 / 426 / 502 and
// which counters move, and one, serve, admits and runs a socket
// (reserve, accept, count, track, endpoint loop). handle, Fetch and
// serveDialed are adapters that bring route a request and write its
// verdict out in their transport's form. Only the listener's own gate —
// Options.MaxAccepted, Stats.AcceptShed, ws.accept_shed, ws.tcp_active
// — belongs to one transport: in-process there is no accept to shed.
package webserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/obs"
	"repro/internal/urlutil"
	"repro/internal/webgen"
	"repro/internal/wsproto"
)

// Stats counts server-side activity, useful in tests and examples.
type Stats struct {
	HTTPRequests   atomic.Int64
	WSHandshakes   atomic.Int64
	WSMessagesSent atomic.Int64
	WSMessagesRecv atomic.Int64
	NotFound       atomic.Int64

	// WSShed counts upgrade requests refused with 503 by the MaxConns
	// admission gate; AcceptShed counts TCP connections dropped at the
	// listener by the MaxAccepted gate.
	WSShed     atomic.Int64
	AcceptShed atomic.Int64
}

// EchoPath is the WebSocket echo endpoint served on any Host when
// Options.EnableEcho is set. It exists for load generation
// (cmd/wsload) and capacity testing: every data message is written
// straight back with its opcode preserved, exercising the full
// accept → handshake → read → write path with no World behind it.
const EchoPath = "/__echo"

// idleTimeout bounds each individual read/write on a served WebSocket,
// refreshed per message — a wedged or vanished peer releases its
// goroutine within one timeout while an active socket lives forever.
const idleTimeout = 30 * time.Second

// Options configures optional server behavior.
type Options struct {
	// MaxConns caps concurrently served WebSocket connections. Upgrade
	// requests beyond the cap are refused with 503 ("server
	// overloaded") and counted in Stats.WSShed / ws.conns_shed, so a
	// load spike degrades into fast, observable rejections instead of
	// unbounded goroutine growth. 0 means unlimited.
	MaxConns int

	// MaxAccepted caps concurrently open TCP connections at the
	// listener. Connections beyond the cap are closed immediately after
	// accept — before HTTP parsing — and counted in Stats.AcceptShed /
	// ws.accept_shed. 0 means unlimited.
	MaxAccepted int

	// EnableEcho serves EchoPath on every virtual host (and, when World
	// is nil, as the only endpoint). Off by default: the echo endpoint
	// is a load-testing surface, not part of the synthetic web.
	EnableEcho bool
}

// Server serves one World.
type Server struct {
	World *webgen.World
	Stats Stats

	opts     Options
	ln       net.Listener
	srv      *http.Server
	mu       sync.Mutex
	socks    map[*wsproto.Conn]struct{} // guarded by mu
	wsActive int                        // guarded by mu
	closed   bool                       // guarded by mu
}

// Start launches the server on an ephemeral loopback port.
func Start(w *webgen.World) (*Server, error) { return StartWith(w, Options{}) }

// StartWith launches the server with explicit options. A nil World is
// allowed when EnableEcho is set: the server then serves only the echo
// endpoint, which is how cmd/wsload self-serves a pure echo target.
func StartWith(w *webgen.World, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("webserver: listen: %w", err)
	}
	s := &Server{
		World: w,
		opts:  opts,
		socks: map[*wsproto.Conn]struct{}{},
	}
	ln = gateListener(ln, opts.MaxAccepted, &s.Stats)
	s.ln = ln
	s.srv = &http.Server{
		Handler:           http.HandlerFunc(s.handle),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Serve exits on Close; other errors are fatal only to the
			// accept loop and will surface as dial failures in callers.
			_ = err
		}
	}()
	return s, nil
}

// Addr returns the host:port the server listens on.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts down the listener and drops open sockets.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.socks {
		_ = c.Close()
	}
	s.socks = map[*wsproto.Conn]struct{}{}
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// hostOnly reduces a Host header value to the form urlutil.URL.Host has:
// lower case, no port.
func hostOnly(hostport string) string {
	if i := strings.LastIndexByte(hostport, ':'); i >= 0 && !strings.Contains(hostport[i:], "]") {
		hostport = hostport[:i]
	}
	return strings.ToLower(hostport)
}

// verdict is route's answer to one request.
type verdict struct {
	// res, when found, is the resource an HTTP request is answered with.
	res   webgen.Resource
	found bool
	// Otherwise a non-zero status refuses the request, with msg as
	// http.Error takes it.
	status int
	msg    string
	// Otherwise the request is an upgrade to admit and serve: ep's
	// protocol, or the echo loop when ep is nil.
	ep *webgen.WSEndpoint
}

// route is the server's one routing decision, shared by every
// transport: what the request for u — Host as hostOnly leaves it, Path
// still percent-escaped, as it travelled — is answered with, and the
// only place the request and not-found counters move. The path is
// decoded here, once, the way net/http decodes a request target.
func (s *Server) route(u *urlutil.URL, upgrade bool) verdict {
	if strings.IndexByte(u.Path, '%') >= 0 {
		// No transport delivers an escape that fails to decode: net/http
		// and wsproto answer it 400, urlutil.Parse refuses the URL.
		if path, err := url.PathUnescape(u.Path); err == nil {
			u = &urlutil.URL{Host: u.Host, Path: path, Query: u.Query}
		}
	}
	if s.opts.EnableEcho && u.Path == EchoPath {
		if !upgrade {
			return verdict{status: http.StatusUpgradeRequired, msg: "websocket upgrade required"}
		}
		return verdict{}
	}
	var res webgen.Resource
	found := false
	if s.World != nil && !upgrade {
		res, found = s.World.GetURL(u)
	}
	// A resource implies a known host, so the common case asks once.
	if !found && (s.World == nil || !s.World.KnownHost(u.Host)) {
		s.Stats.NotFound.Add(1)
		return verdict{status: http.StatusBadGateway, msg: "unknown virtual host"}
	}
	if upgrade {
		if ep, ok := s.World.WSEndpointFor(u.Host, u.Path); ok {
			return verdict{ep: ep}
		}
		s.Stats.NotFound.Add(1)
		return verdict{status: http.StatusNotFound, msg: "no websocket endpoint here"}
	}
	s.Stats.HTTPRequests.Add(1)
	obs.ServerRequests.Inc()
	if !found {
		s.Stats.NotFound.Add(1)
		return verdict{status: http.StatusNotFound, msg: "no such resource"}
	}
	return verdict{res: res, found: true}
}

// handle is the wire's adapter: a request net/http read.
func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	if strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		// A refusal — here, or route's or the admission gate's in serve —
		// is an http.Error; the connection is hijacked only to be served.
		if p, err := wsproto.FromHTTP(w, r); err == nil {
			s.serve(p)
		}
		return
	}
	// Drain request bodies (beacon POSTs) before responding.
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, 1<<20))
	}
	v := s.route(&urlutil.URL{Host: hostOnly(r.Host), Path: r.URL.EscapedPath(), Query: r.URL.RawQuery}, false)
	if !v.found {
		http.Error(w, v.msg, v.status)
		return
	}
	w.Header().Set("Content-Type", v.res.ContentType)
	w.WriteHeader(v.res.Status)
	_, _ = w.Write(v.res.Body)
}

// serve answers one validated opening handshake, from either socket
// transport, on the caller's goroutine: refuse it as route says, shed it
// with 503 when no admission slot is free, or upgrade and run the
// endpoint until the socket ends. The slot is released by untrack when
// the endpoint loop exits, or at once if the upgrade fails.
func (s *Server) serve(p *wsproto.Pending) {
	path, query, _ := strings.Cut(p.Request.Path, "?")
	v := s.route(&urlutil.URL{Host: hostOnly(p.Request.Host), Path: path, Query: query}, true)
	if v.status != 0 {
		p.Reject(v.status, v.msg)
		return
	}
	start := time.Now()
	if !s.tryReserve() {
		s.Stats.WSShed.Add(1)
		obs.WSConnsShed.Inc()
		p.Reject(http.StatusServiceUnavailable, "server overloaded")
		return
	}
	conn, err := p.Accept("")
	if err != nil {
		s.release()
		return
	}
	obs.WSHandshake.ObserveSince(start)
	s.Stats.WSHandshakes.Add(1)
	obs.ServerHandshakes.Inc()
	obs.WSConnsTotal.Inc()
	s.track(conn)
	if v.ep == nil {
		s.echoLoop(conn)
	} else {
		s.serveSocket(conn, v.ep, query)
	}
}

// DialSocket opens a WebSocket transport to this server in-process: it
// returns one end of an in-memory connection and serves the other, as
// the listener would an accepted TCP connection. It has the shape of
// wsproto.Dialer.NetDial (network and addr are ignored: every virtual
// host lives here) and is to sockets what Fetch is to HTTP — the client
// still speaks complete RFC 6455 over the returned conn, and routing,
// admission, counters and the endpoint protocol are the wire's (route,
// serve), so a crawl observes the same handshake outcomes and frames
// either way.
func (s *Server) DialSocket(_ context.Context, _, _ string) (net.Conn, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		// What a TCP dial to the closed listener reports.
		return nil, fmt.Errorf("webserver: dial: %w", net.ErrClosed)
	}
	client, server := newMemPipe()
	go s.serveDialed(server)
	return client, nil
}

// serveDialed is DialSocket's adapter: a connection whose opening
// handshake is still to be read.
func (s *Server) serveDialed(nc net.Conn) {
	// A malformed handshake is answered 400 and closed, as net/http and
	// FromHTTP answer one on the wire.
	if p, err := wsproto.ReadRequest(nc); err == nil {
		s.serve(p)
	}
}

// tryReserve claims one MaxConns admission slot.
func (s *Server) tryReserve() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.opts.MaxConns > 0 && s.wsActive >= s.opts.MaxConns {
		return false
	}
	s.wsActive++
	obs.WSConnsActive.Add(1)
	return true
}

// release returns an admission slot claimed by tryReserve, for paths
// where the conn never reached its serve loop (failed upgrades).
func (s *Server) release() {
	s.mu.Lock()
	s.wsActive--
	s.mu.Unlock()
	obs.WSConnsActive.Add(-1)
}

func (s *Server) track(c *wsproto.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		_ = c.Close()
		return
	}
	s.socks[c] = struct{}{}
}

// untrack forgets a served conn and returns its admission slot. Every
// admitted conn's serve loop defers exactly one untrack, so the slot
// accounting balances even when track found the server already closed.
func (s *Server) untrack(c *wsproto.Conn) {
	s.mu.Lock()
	delete(s.socks, c)
	s.wsActive--
	s.mu.Unlock()
	obs.WSConnsActive.Add(-1)
}

// serveSocket implements the endpoint protocol: push the deterministic
// response messages for this connection, then read client traffic until
// the client closes.
func (s *Server) serveSocket(conn *wsproto.Conn, ep *webgen.WSEndpoint, query string) {
	defer s.untrack(conn)
	defer conn.Close()
	for _, msg := range s.World.WSMessages(ep, query) {
		// Anything that is not valid UTF-8 (images, binary blobs) must
		// travel as a binary frame, or the client's RFC 6455 text
		// validation would fail the connection.
		op := wsproto.OpText
		if !utf8.Valid(msg) {
			op = wsproto.OpBinary
		}
		_ = conn.SetWriteDeadline(time.Now().Add(idleTimeout))
		if err := conn.WriteMessage(op, msg); err != nil {
			return
		}
		s.Stats.WSMessagesSent.Add(1)
		obs.ServerMessages.Inc()
		obs.WSMessagesOut.Inc()
		obs.WSBytesOut.Add(int64(len(msg)))
	}
	_ = conn.SetWriteDeadline(time.Time{})
	for {
		_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
		_, msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		s.Stats.WSMessagesRecv.Add(1)
		obs.WSMessagesIn.Inc()
		obs.WSBytesIn.Add(int64(len(msg)))
	}
}

// echoLoop serves EchoPath: each data message is written straight back
// with its opcode preserved, under per-message idle deadlines.
func (s *Server) echoLoop(conn *wsproto.Conn) {
	defer s.untrack(conn)
	defer conn.Close()
	for {
		_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
		op, msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		s.Stats.WSMessagesRecv.Add(1)
		obs.WSMessagesIn.Inc()
		obs.WSBytesIn.Add(int64(len(msg)))
		// msg aliases the conn's read scratch (wsproto ownership rule),
		// but WriteMessage finishes with the bytes before returning and
		// the next read starts after it, so echoing needs no copy.
		_ = conn.SetWriteDeadline(time.Now().Add(idleTimeout))
		if err := conn.WriteMessage(op, msg); err != nil {
			return
		}
		s.Stats.WSMessagesSent.Add(1)
		obs.ServerMessages.Inc()
		obs.WSMessagesOut.Inc()
		obs.WSBytesOut.Add(int64(len(msg)))
	}
}

// Fetch is the in-process adapter for HTTP: it answers one request
// without the TCP listener or the net/http stack, the fast path of a
// single-process crawl. The answer and the counters are route's, so a
// crawl fetching through Fetch observes the statuses, content types and
// bodies of one fetching over the wire — the refusals included: a host
// the World does not serve is a 502 response here as it is there
// (Client pins every dial to this server, so a wire client never sees a
// failed dial), and err is always nil. postBody is accepted for
// signature fidelity with an HTTP POST; like handle, Fetch discards
// request bodies.
//
// The returned body is the World's: freshly rendered (pages, scripts,
// frames), or one of its static bodies, which every fetch shares. No one
// writes it afterwards — that is browser.Config.Fetch's contract, which
// lets the browser parse a body where it lies — so callers must treat it
// as read-only.
func (s *Server) Fetch(u *urlutil.URL, postBody []byte) (status int, contentType string, body []byte, err error) {
	_ = postBody
	v := s.route(u, false)
	if !v.found {
		// http.Error's exact observable surface: status, content type,
		// and the message with a trailing newline.
		return v.status, "text/plain; charset=utf-8", []byte(v.msg + "\n"), nil
	}
	b := v.res.Body
	if b == nil {
		// A wire client's io.ReadAll on an empty response yields an
		// empty non-nil slice; keep the two paths indistinguishable.
		b = []byte{}
	}
	return v.res.Status, v.res.ContentType, b, nil
}

// Resolver returns a function mapping every host:port to the server's
// address, for use as a browser/Dialer resolver. Hosts the World does
// not serve resolve here too and are answered 502, as Client's HTTP
// dials are: the synthetic companies carry real domain names, and a
// crawl must never look one up for real.
func (s *Server) Resolver() func(hostport string) string {
	addr := s.Addr()
	return func(string) string { return addr }
}

// Client returns an http.Client whose connections all go to this server
// while preserving Host-header virtual hosting.
func (s *Server) Client() *http.Client {
	addr := s.Addr()
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 32,
		// The pool is keyed by virtual host, and a crawl meets new hosts
		// with every site: without a total, one idle connection (and its
		// goroutines on both sides) per host ever fetched outlives the
		// crawl's interest in it.
		MaxIdleConns: 32,
	}
	return &http.Client{Transport: transport, Timeout: 30 * time.Second}
}
