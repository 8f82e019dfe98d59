// Package webserver serves a webgen.World: every publisher and company
// host is virtual-hosted on one server (selected by the Host header, the
// way a DNS override would), and WebSocket endpoints complete genuine
// RFC 6455 handshakes via internal/wsproto.
//
// The server has two transports with one behaviour. The wire — a real
// loopback TCP listener behind net/http (Addr, Client, Resolver) — is
// what the reference plane, fault-injected crawls, cmd/wsload and any
// external client use. A single-process crawl goes in-process instead:
// Fetch answers an HTTP request and DialSocket opens a WebSocket without
// touching the kernel or net/http, each mirroring its branch of the
// wire handler status for status and counter for counter (the pipeline
// differential test in internal/core holds the two to the same bytes).
// Only the listener's own admission gate — Options.MaxAccepted,
// Stats.AcceptShed, ws.accept_shed, ws.tcp_active — has no in-process
// counterpart: there is no accept to shed.
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

	"repro/internal/faultnet"
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

// Options configures optional server behavior.
type Options struct {
	// Fault, when enabled, degrades every accepted connection — HTTP
	// and WebSocket alike — through internal/faultnet. The schedule is
	// applied uniformly (faultnet.ModeUniform, seeded by FaultSeed) so
	// accept order cannot leak into per-request outcomes.
	Fault     faultnet.Profile
	FaultSeed int64

	// IdleTimeout bounds each individual read/write on a served
	// WebSocket, refreshed per message — a wedged or vanished peer
	// releases its goroutine within one timeout while an active socket
	// lives forever. Default 30s.
	IdleTimeout time.Duration

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
	if opts.IdleTimeout == 0 {
		opts.IdleTimeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("webserver: listen: %w", err)
	}
	ln = faultnet.WrapListener(ln, opts.Fault, opts.FaultSeed, faultnet.ModeUniform)
	s := &Server{
		World: w,
		opts:  opts,
		socks: map[*wsproto.Conn]struct{}{},
	}
	// Accept gate outermost: shed decisions happen before fault
	// injection spends any budget on the doomed connection.
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

// hostOnly strips a port from a Host header value.
func hostOnly(hostport string) string {
	if i := strings.LastIndexByte(hostport, ':'); i >= 0 && !strings.Contains(hostport[i:], "]") {
		return hostport[:i]
	}
	return hostport
}

// isUpgrade reports whether the request is a WebSocket opening handshake.
func isUpgrade(r *http.Request) bool {
	return strings.EqualFold(r.Header.Get("Upgrade"), "websocket")
}

func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	host := hostOnly(r.Host)
	if s.opts.EnableEcho && r.URL.Path == EchoPath {
		if !isUpgrade(r) {
			http.Error(w, "websocket upgrade required", http.StatusUpgradeRequired)
			return
		}
		s.handleEcho(w, r)
		return
	}
	if s.World == nil || !s.World.KnownHost(host) {
		s.Stats.NotFound.Add(1)
		http.Error(w, "unknown virtual host", http.StatusBadGateway)
		return
	}
	if isUpgrade(r) {
		s.handleWS(w, r, host)
		return
	}
	s.Stats.HTTPRequests.Add(1)
	obs.ServerRequests.Inc()
	url := "http://" + host + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	// Drain request bodies (beacon POSTs) before responding.
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, 1<<20))
	}
	res, ok := s.World.Get(url)
	if !ok {
		s.Stats.NotFound.Add(1)
		http.Error(w, "no such resource", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", res.ContentType)
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body)
}

func (s *Server) handleWS(w http.ResponseWriter, r *http.Request, host string) {
	ep, ok := s.World.WSEndpointFor(host, r.URL.Path)
	if !ok {
		s.Stats.NotFound.Add(1)
		http.Error(w, "no websocket endpoint here", http.StatusNotFound)
		return
	}
	query := r.URL.RawQuery
	conn, ok := s.admit(w, r)
	if !ok {
		return
	}
	s.track(conn)
	go s.serveSocket(conn, ep, query)
}

// handleEcho upgrades and serves the echo endpoint, under the same
// admission gate as World endpoints.
func (s *Server) handleEcho(w http.ResponseWriter, r *http.Request) {
	conn, ok := s.admit(w, r)
	if !ok {
		return
	}
	s.track(conn)
	go s.echoLoop(conn)
}

// admit runs the MaxConns admission gate and, if a slot is free,
// completes the WebSocket upgrade. On success the caller owns one
// admission slot, released by untrack when the serve loop exits.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (*wsproto.Conn, bool) {
	start := time.Now()
	if !s.reserve() {
		http.Error(w, "server overloaded", http.StatusServiceUnavailable)
		return nil, false
	}
	conn, err := wsproto.Upgrade(w, r)
	return conn, s.upgraded(err, start)
}

// admitPending is admit for a DialSocket connection, whose handshake
// wsproto has read but not answered.
func (s *Server) admitPending(p *wsproto.Pending) (*wsproto.Conn, bool) {
	start := time.Now()
	if !s.reserve() {
		p.Reject(http.StatusServiceUnavailable, "server overloaded")
		return nil, false
	}
	conn, err := p.Accept("")
	return conn, s.upgraded(err, start)
}

// reserve claims an admission slot, or counts the shed the caller is
// about to answer 503.
func (s *Server) reserve() bool {
	if s.tryReserve() {
		return true
	}
	s.Stats.WSShed.Add(1)
	obs.WSConnsShed.Inc()
	return false
}

// upgraded settles a reserved slot once the upgrade was attempted: a
// failed one hands the slot back, a completed one is counted and its
// handshake timed from start.
func (s *Server) upgraded(err error, start time.Time) bool {
	if err != nil {
		s.release()
		return false
	}
	obs.WSHandshake.ObserveSince(start)
	s.Stats.WSHandshakes.Add(1)
	obs.ServerHandshakes.Inc()
	obs.WSConnsTotal.Inc()
	return true
}

// DialSocket opens a WebSocket transport to this server in-process: it
// returns one end of an in-memory connection and serves the other, as
// the listener would an accepted TCP connection. It has the shape of
// wsproto.Dialer.NetDial (network and addr are ignored: every virtual
// host lives here) and is to sockets what Fetch is to HTTP — the client
// still speaks complete RFC 6455 over the returned conn, and routing,
// admission, counters and the endpoint protocol are those of the wire
// handler, so a crawl observes the same handshake outcomes and frames
// either way. Like Fetch it must not be used under a fault profile.
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

// serveDialed is handle()'s WebSocket branch for a DialSocket
// connection: read the opening handshake, route on host and path, then
// refuse with the status handle() would send or upgrade and run the
// endpoint on this goroutine.
func (s *Server) serveDialed(nc net.Conn) {
	p, err := wsproto.ReadRequest(nc)
	if err != nil {
		return // answered 400 and closed, as net/http + Upgrade would
	}
	host := hostOnly(p.Request.Host)
	path, query, _ := strings.Cut(p.Request.Path, "?")
	if strings.IndexByte(path, '%') >= 0 {
		// net/http routes on the decoded path.
		if u, err := url.ParseRequestURI(p.Request.Path); err == nil {
			path = u.Path
		}
	}
	if s.opts.EnableEcho && path == EchoPath {
		if conn, ok := s.admitPending(p); ok {
			s.track(conn)
			s.echoLoop(conn)
		}
		return
	}
	if s.World == nil || !s.World.KnownHost(host) {
		s.Stats.NotFound.Add(1)
		p.Reject(http.StatusBadGateway, "unknown virtual host")
		return
	}
	ep, ok := s.World.WSEndpointFor(host, path)
	if !ok {
		s.Stats.NotFound.Add(1)
		p.Reject(http.StatusNotFound, "no websocket endpoint here")
		return
	}
	if conn, ok := s.admitPending(p); ok {
		s.track(conn)
		s.serveSocket(conn, ep, query)
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
	idle := s.opts.IdleTimeout
	for _, msg := range s.World.WSMessages(ep, query) {
		// Anything that is not valid UTF-8 (images, binary blobs) must
		// travel as a binary frame, or the client's RFC 6455 text
		// validation would fail the connection.
		op := wsproto.OpText
		if !utf8.Valid(msg) {
			op = wsproto.OpBinary
		}
		_ = conn.SetWriteDeadline(time.Now().Add(idle))
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
		_ = conn.SetReadDeadline(time.Now().Add(idle))
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
	idle := s.opts.IdleTimeout
	for {
		_ = conn.SetReadDeadline(time.Now().Add(idle))
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
		_ = conn.SetWriteDeadline(time.Now().Add(idle))
		if err := conn.WriteMessage(op, msg); err != nil {
			return
		}
		s.Stats.WSMessagesSent.Add(1)
		obs.ServerMessages.Inc()
		obs.WSMessagesOut.Inc()
		obs.WSBytesOut.Add(int64(len(msg)))
	}
}

// Fetch resolves one HTTP request against the World in-process,
// bypassing the TCP listener and the net/http stack entirely. It is the
// fast path for single-process crawls: the handler logic and counters
// mirror handle() exactly, so a crawl fetching through Fetch observes
// byte-identical statuses, content types, and bodies to one fetching
// over the wire (proven by the pipeline differential test in
// internal/core). postBody is accepted for signature fidelity with an
// HTTP POST; like handle(), the server discards request bodies.
//
// The returned body aliases the World's resource bytes: callers must
// treat it as read-only. Unknown virtual hosts return an error, the
// in-process equivalent of the failed dial a wire client would see.
//
// Fetch must not be used under a fault profile — fault injection
// degrades the wire, so bypassing the wire would bypass the faults;
// core keeps fault-injected crawls on the TCP client.
func (s *Server) Fetch(u *urlutil.URL, postBody []byte) (status int, contentType string, body []byte, err error) {
	_ = postBody
	if s.World == nil || !s.World.KnownHost(u.Host) {
		return 0, "", nil, fmt.Errorf("webserver: no route to host %q", u.Host)
	}
	s.Stats.HTTPRequests.Add(1)
	obs.ServerRequests.Inc()
	res, ok := s.World.GetURL(u)
	if !ok {
		s.Stats.NotFound.Add(1)
		// http.Error's exact observable surface: status, content type,
		// and the message with a trailing newline.
		return http.StatusNotFound, "text/plain; charset=utf-8", []byte("no such resource\n"), nil
	}
	b := res.Body
	if b == nil {
		// A wire client's io.ReadAll on an empty response yields an
		// empty non-nil slice; keep the two paths indistinguishable.
		b = []byte{}
	}
	return res.Status, res.ContentType, b, nil
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
		// Under fault injection every request must ride its own
		// connection: pooled conns carry budget state across requests,
		// making a request's outcome depend on which conn the pool
		// happens to hand out — exactly the nondeterminism the uniform
		// schedule exists to exclude.
		DisableKeepAlives: s.opts.Fault.Enabled(),
	}
	return &http.Client{Transport: transport, Timeout: 30 * time.Second}
}
