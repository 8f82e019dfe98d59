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

// Accept performs the server side of the opening handshake on a raw
// network connection that has not yet read the HTTP request, and returns
// the established Conn plus the parsed handshake. selectProtocol, if
// non-nil, picks the agreed subprotocol from the client's offer.
//
// The whole handshake runs under HandshakeTimeout; the deadline is
// lifted once the upgrade completes.
func Accept(nc net.Conn, selectProtocol func(offered []string) string) (*Conn, *HandshakeRequest, error) {
	_ = nc.SetDeadline(handshakeDeadline())
	br := bufio.NewReader(nc)
	hs, err := readClientHandshake(br)
	if err != nil {
		writeHandshakeError(nc, err)
		nc.Close()
		return nil, nil, err
	}
	sub := ""
	if selectProtocol != nil {
		sub = selectProtocol(hs.Protocols)
	}
	// Pooled handshake writer: borrowed for the response flush only.
	bw := getHandshakeWriter(nc)
	err = writeServerHandshake(bw, hs.Key, sub)
	putHandshakeWriter(bw)
	if err != nil {
		nc.Close()
		return nil, nil, fmt.Errorf("wsproto: send handshake response: %w", err)
	}
	_ = nc.SetDeadline(time.Time{})
	// Server conns never mask frames (RFC 6455 §5.1), so the RNG is
	// inert; a fixed seed keeps the conn fully deterministic anyway.
	conn := newConn(nc, br, false, detrand.New(1))
	conn.Subprotocol = sub
	return conn, hs, nil
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

// writeHandshakeError responds to a malformed opening handshake with a
// minimal HTTP error before the caller drops the connection. The write
// is bounded by a deadline (mirroring sendClose in conn.go): the peer
// already misbehaved once, it cannot be allowed to block us too.
func writeHandshakeError(nc net.Conn, err error) {
	_ = nc.SetWriteDeadline(handshakeDeadline())
	fmt.Fprintf(nc, "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain\r\nConnection: close\r\n\r\n%v\n", err)
	_ = nc.SetWriteDeadline(time.Time{})
}
