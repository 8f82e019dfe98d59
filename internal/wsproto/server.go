package wsproto

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/detrand"
)

// HandshakeTimeout bounds the opening-handshake I/O on the server side
// (and on client dials whose context carries no deadline). Without it a
// slow-loris peer — one that connects and then trickles or withholds
// the handshake — wedges a goroutine forever.
var HandshakeTimeout = 10 * time.Second

// handshakeDeadline computes the absolute deadline for one handshake.
func handshakeDeadline() time.Time {
	// Deadline arithmetic only: bounds handshake I/O, never reaches
	// frame bytes or recorded traffic.
	//lint:allow determinism handshake deadline must be anchored to the wall clock
	return time.Now().Add(HandshakeTimeout)
}

// Pending is a client opening handshake that has been read and
// validated but not yet answered. Exactly one of Accept or Reject must
// follow; both end the Pending.
type Pending struct {
	// Request is the parsed handshake: what the server routes on.
	Request *HandshakeRequest

	nc   net.Conn
	br   *bufio.Reader
	head *headLimit
}

// ReadRequest reads and validates the client's opening handshake from a
// raw connection, under HandshakeTimeout and the 64 KiB head cap, and
// leaves the answer to the caller — the point at which a server looks
// at host and path (webserver) before committing to the upgrade. A
// malformed or oversized handshake is answered 400 and nc is closed.
func ReadRequest(nc net.Conn) (*Pending, error) {
	_ = nc.SetDeadline(handshakeDeadline())
	head := newHeadLimit(nc)
	br := bufio.NewReader(head)
	hs, err := readClientHandshake(br)
	if err = head.explain(err); err != nil {
		writeHTTPError(nc, http.StatusBadRequest, err.Error())
		nc.Close()
		return nil, err
	}
	return &Pending{Request: hs, nc: nc, br: br, head: head}, nil
}

// Accept answers 101 Switching Protocols with the given subprotocol
// ("" for none), lifts the handshake deadline and returns the
// established Conn. On a failed write the connection is closed.
func (p *Pending) Accept(subprotocol string) (*Conn, error) {
	// Pooled handshake writer: borrowed for the response flush only.
	bw := getHandshakeWriter(p.nc)
	err := writeServerHandshake(bw, p.Request.Key, subprotocol)
	putHandshakeWriter(bw)
	if err != nil {
		p.nc.Close()
		return nil, fmt.Errorf("wsproto: send handshake response: %w", err)
	}
	p.head.lift()
	_ = p.nc.SetDeadline(time.Time{})
	// Server conns never mask frames (RFC 6455 §5.1), so the RNG is
	// inert; a fixed seed keeps the conn fully deterministic anyway.
	conn := newConn(p.nc, p.br, false, detrand.New(1))
	conn.Subprotocol = subprotocol
	return conn, nil
}

// Reject refuses the upgrade with a plain HTTP error response — status
// line, text/plain body, Connection: close — and closes the
// connection. The client's Dial fails with ErrBadHandshakeStatus.
func (p *Pending) Reject(status int, msg string) {
	writeHTTPError(p.nc, status, msg)
	p.nc.Close()
}

// Accept performs the server side of the opening handshake on a raw
// network connection that has not yet read the HTTP request, and returns
// the established Conn plus the parsed handshake. selectProtocol, if
// non-nil, picks the agreed subprotocol from the client's offer.
//
// The whole handshake runs under HandshakeTimeout; the deadline is
// lifted once the upgrade completes.
func Accept(nc net.Conn, selectProtocol func(offered []string) string) (*Conn, *HandshakeRequest, error) {
	p, err := ReadRequest(nc)
	if err != nil {
		return nil, nil, err
	}
	sub := ""
	if selectProtocol != nil {
		sub = selectProtocol(p.Request.Protocols)
	}
	conn, err := p.Accept(sub)
	if err != nil {
		return nil, nil, err
	}
	return conn, p.Request, nil
}

// Upgrade hijacks an http.ResponseWriter whose request is a WebSocket
// opening handshake and completes the upgrade. It is the bridge between
// the synthetic web's HTTP server and this protocol implementation.
//
// The request line and headers were already read by net/http under the
// server's own limits; the response write here runs under
// HandshakeTimeout so an unresponsive peer cannot wedge the upgrade.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return nil, ErrNotGET
	}
	if !headerContainsToken(r.Header.Get("Connection"), "Upgrade") {
		http.Error(w, "not a websocket handshake", http.StatusBadRequest)
		return nil, ErrBadConnectionHeader
	}
	if !headerContainsToken(r.Header.Get("Upgrade"), "websocket") {
		http.Error(w, "not a websocket handshake", http.StatusBadRequest)
		return nil, ErrBadUpgradeHeader
	}
	if r.Header.Get("Sec-Websocket-Version") != "13" {
		http.Error(w, "unsupported websocket version", http.StatusBadRequest)
		return nil, ErrBadVersion
	}
	key := r.Header.Get("Sec-Websocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, ErrMissingKey
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket upgrade unsupported", http.StatusInternalServerError)
		return nil, fmt.Errorf("wsproto: ResponseWriter does not support hijacking")
	}
	nc, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("wsproto: hijack: %w", err)
	}
	_ = nc.SetWriteDeadline(handshakeDeadline())
	if err := writeServerHandshake(rw.Writer, key, ""); err != nil {
		nc.Close()
		return nil, fmt.Errorf("wsproto: send handshake response: %w", err)
	}
	_ = nc.SetWriteDeadline(time.Time{})
	// As in Accept: server conns never mask, the fixed-seed RNG is inert.
	return newConn(nc, rw.Reader, false, detrand.New(2)), nil
}

// writeHTTPError answers an opening handshake that will not be upgraded
// with a minimal HTTP error before the caller drops the connection. The
// write is bounded by a deadline (mirroring sendClose in conn.go): a
// peer that already misbehaved cannot be allowed to block us too.
func writeHTTPError(nc net.Conn, status int, msg string) {
	_ = nc.SetWriteDeadline(handshakeDeadline())
	fmt.Fprintf(nc, "HTTP/1.1 %d %s\r\nContent-Type: text/plain\r\nConnection: close\r\n\r\n%s\n", status, http.StatusText(status), msg)
	_ = nc.SetWriteDeadline(time.Time{})
}
