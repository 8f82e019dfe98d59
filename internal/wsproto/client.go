package wsproto

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/urlutil"
)

// Dialer opens client WebSocket connections. The zero value dials the
// host named in the URL over TCP; NetDial and rewriting hooks let the
// synthetic-web browser route every virtual host to one loopback server.
type Dialer struct {
	// NetDial, if non-nil, replaces net.Dial for the underlying
	// transport connection. addr is the host:port derived from the URL
	// (after ResolveAddr, if set).
	NetDial func(ctx context.Context, network, addr string) (net.Conn, error)

	// ResolveAddr, if non-nil, maps the URL's host:port to the dial
	// address. The Host header still carries the original virtual host.
	ResolveAddr func(hostport string) string

	// Rand supplies masking keys and handshake nonces; nil means a
	// time-seeded source.
	Rand *rand.Rand

	// Header is added to the opening handshake request (e.g. Origin,
	// Cookie, User-Agent).
	Header http.Header

	// WrapConn, if non-nil, wraps the freshly dialed transport conn
	// before any handshake byte moves — the hook the fault-injection
	// middleware (internal/faultnet) uses to degrade client sockets.
	WrapConn func(net.Conn) net.Conn
}

// Dial performs the opening handshake against the ws:// or wss:// URL and
// returns the established connection along with the validated handshake
// response headers.
//
// "wss" URLs are carried over the same insecure transport as "ws": the
// synthetic web has no CA infrastructure, and nothing in the measurement
// depends on transport encryption — only on scheme labels.
func (d *Dialer) Dial(ctx context.Context, rawURL string) (*Conn, http.Header, error) {
	u, err := urlutil.Parse(rawURL)
	if err != nil {
		return nil, nil, err
	}
	if !u.IsWebSocket() {
		return nil, nil, fmt.Errorf("wsproto: dial %q: not a ws/wss URL", rawURL)
	}
	addr := u.HostPort()
	if d.ResolveAddr != nil {
		addr = d.ResolveAddr(addr)
	}
	netDial := d.NetDial
	if netDial == nil {
		var std net.Dialer
		netDial = std.DialContext
	}
	nc, err := netDial(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("wsproto: dial %s: %w", addr, err)
	}
	if d.WrapConn != nil {
		nc = d.WrapConn(nc)
	}
	rng := d.Rand
	if rng == nil {
		// The one sanctioned nondeterministic RNG in the protocol layer:
		// a zero Dialer dialing an arbitrary server gets fresh masking
		// keys and nonces, per the security intent of RFC 6455 §5.3.
		// Every in-repo caller on a measurement path (browser, tests)
		// injects a seeded RNG instead, so recorded traffic stays a pure
		// function of the crawl seed.
		//lint:allow determinism intentional fallback for un-seeded interop dials; measurement paths always inject Rand
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	// The handshake I/O must always run under a deadline — a server
	// that accepts TCP and then goes silent would otherwise hang the
	// read forever. The context deadline wins when set; otherwise the
	// protocol-level HandshakeTimeout bounds it.
	if deadline, ok := ctx.Deadline(); ok {
		_ = nc.SetDeadline(deadline)
	} else {
		_ = nc.SetDeadline(handshakeDeadline())
	}
	key := GenerateKey(rng)
	// The handshake writer is pooled: it is needed only until the
	// request bytes are flushed, unlike the conn's reader, which lives
	// for the connection's lifetime (see pool.go).
	bw := getHandshakeWriter(nc)
	err = writeClientHandshake(bw, u, key, d.Header)
	putHandshakeWriter(bw)
	if err != nil {
		nc.Close()
		return nil, nil, fmt.Errorf("wsproto: send handshake: %w", err)
	}
	head := newHeadLimit(nc)
	br := bufio.NewReader(head)
	respHdr, err := readServerHandshake(br, key)
	if err = head.explain(err); err != nil {
		nc.Close()
		return nil, nil, err
	}
	// Handshake complete: lift the head cap and the deadline; callers
	// manage their own read/write deadlines from here.
	head.lift()
	_ = nc.SetDeadline(time.Time{})
	conn := newConn(nc, br, true, rng)
	conn.Subprotocol = respHdr.Get("Sec-Websocket-Protocol")
	return conn, respHdr, nil
}

// Dial is a convenience wrapper using a zero Dialer.
func Dial(ctx context.Context, rawURL string) (*Conn, http.Header, error) {
	var d Dialer
	return d.Dial(ctx, rawURL)
}
