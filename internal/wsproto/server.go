package wsproto

import (
	"bufio"
	"errors"
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

	// A handshake this package read off a raw connection (ReadRequest)
	// holds the connection; one net/http read (FromHTTP) holds the
	// response it has not hijacked yet.
	nc   net.Conn
	br   *bufio.Reader
	head *headLimit
	w    http.ResponseWriter
}

// ReadRequest reads and validates the client's opening handshake from a
// raw connection, under HandshakeTimeout and the 64 KiB head cap, and
// leaves the answer to the caller — the point at which a server looks
// at host and path (webserver) before committing to the upgrade. A
// malformed or oversized handshake is answered 400 and nc is closed.
func ReadRequest(nc net.Conn) (*Pending, error) {
	_ = nc.SetDeadline(handshakeDeadline())
	head := newHeadLimit(nc)
	p := &Pending{nc: nc, br: bufio.NewReader(head), head: head}
	hs, err := readClientHandshake(p.br)
	return p.validated(hs, head.explain(err))
}

// FromHTTP is ReadRequest for a handshake net/http's server has already
// read, under its own limits: the bridge between the synthetic web's
// HTTP server and this protocol implementation. The connection stays
// with net/http until Accept hijacks it, so Reject (and the 400 that
// answers an invalid handshake here) is an ordinary http.Error.
func FromHTTP(w http.ResponseWriter, r *http.Request) (*Pending, error) {
	p := &Pending{w: w}
	return p.validated(newHandshakeRequest(r.Method, r.RequestURI, r.Host, r.Header, r.TransferEncoding))
}

// validated ends either constructor: a handshake the validator refused
// is answered 400, in the form Reject has for p, and p is spent.
func (p *Pending) validated(hs *HandshakeRequest, err error) (*Pending, error) {
	if err != nil {
		p.Reject(http.StatusBadRequest, err.Error())
		return nil, err
	}
	p.Request = hs
	return p, nil
}

// Accept answers 101 Switching Protocols with the given subprotocol
// ("" for none), lifts the handshake deadline and returns the
// established Conn. On a failed write the connection is closed.
func (p *Pending) Accept(subprotocol string) (*Conn, error) {
	if p.w != nil {
		hj, ok := p.w.(http.Hijacker)
		if !ok {
			p.Reject(http.StatusInternalServerError, "websocket upgrade unsupported")
			return nil, errors.New("wsproto: ResponseWriter does not support hijacking")
		}
		nc, rw, err := hj.Hijack()
		if err != nil {
			return nil, fmt.Errorf("wsproto: hijack: %w", err)
		}
		// net/http lifted its own deadlines; the 101 still needs one, or
		// an unresponsive peer could wedge the upgrade.
		_ = nc.SetWriteDeadline(handshakeDeadline())
		p.nc, p.br = nc, rw.Reader
	}
	// Pooled handshake writer: borrowed for the response flush only.
	bw := getHandshakeWriter(p.nc)
	err := writeServerHandshake(bw, p.Request.Key, subprotocol)
	putHandshakeWriter(bw)
	if err != nil {
		p.nc.Close()
		return nil, fmt.Errorf("wsproto: send handshake response: %w", err)
	}
	if p.head != nil {
		p.head.lift()
	}
	_ = p.nc.SetDeadline(time.Time{})
	// Server conns never mask frames (RFC 6455 §5.1), so the RNG is
	// inert; a fixed seed keeps the conn fully deterministic anyway.
	conn := newConn(p.nc, p.br, false, detrand.New(1))
	conn.Subprotocol = subprotocol
	return conn, nil
}

// Reject refuses the upgrade with a plain HTTP error response — status
// line, text/plain body, Connection: close on a raw connection, which
// is then closed. The client's Dial fails with ErrBadHandshakeStatus.
func (p *Pending) Reject(status int, msg string) {
	if p.w != nil {
		http.Error(p.w, msg, status)
		return
	}
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

// Upgrade completes the upgrade of a net/http request that is a
// WebSocket opening handshake: FromHTTP, then Accept with no
// subprotocol.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	p, err := FromHTTP(w, r)
	if err != nil {
		return nil, err
	}
	return p.Accept("")
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
