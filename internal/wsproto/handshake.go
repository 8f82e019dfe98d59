package wsproto

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/textproto"
	"net/url"
	"sort"
	"strings"

	"repro/internal/urlutil"
)

// websocketGUID is the fixed GUID from RFC 6455 §1.3 used to derive the
// Sec-WebSocket-Accept value.
const websocketGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// Handshake errors.
var (
	ErrBadHandshakeStatus  = errors.New("wsproto: handshake response status is not 101")
	ErrBadUpgradeHeader    = errors.New("wsproto: missing or invalid Upgrade header")
	ErrBadConnectionHeader = errors.New("wsproto: missing or invalid Connection header")
	ErrBadAcceptKey        = errors.New("wsproto: Sec-WebSocket-Accept mismatch")
	ErrBadVersion          = errors.New("wsproto: unsupported Sec-WebSocket-Version")
	ErrMissingKey          = errors.New("wsproto: missing Sec-WebSocket-Key")
	ErrNotGET              = errors.New("wsproto: handshake request method is not GET")
	ErrHandshakeTooLarge   = errors.New("wsproto: handshake head exceeds 64 KiB")
	ErrHandshakeBody       = errors.New("wsproto: handshake request declares a body")
)

// maxHandshakeBytes caps how much of a connection one opening handshake
// may consume, request or response. The head is read through textproto,
// which has no limit of its own: without the cap a peer could grow one
// header line until the handshake deadline, and Accept faces raw TCP
// (fabric.Coordinator) as well as the crawl's own browser.
const maxHandshakeBytes = 64 << 10

// headLimit is the io.Reader a handshake's bufio.Reader is built on: it
// fails with ErrHandshakeTooLarge once maxHandshakeBytes have been read
// and the head is still incomplete. lift removes the cap when the
// handshake is done, since the same bufio.Reader goes on to read frames.
type headLimit struct {
	r    io.Reader
	left int // bytes still allowed; negative once lifted
}

func newHeadLimit(r io.Reader) *headLimit { return &headLimit{r: r, left: maxHandshakeBytes} }

func (h *headLimit) lift() { h.left = -1 }

// explain names the cap as the cause of a parse error it provoked:
// bufio hands the parser the line the cap cut short before it hands it
// the cap's error, so the parser complains about the fragment.
func (h *headLimit) explain(err error) error {
	if err != nil && h.left == 0 {
		return ErrHandshakeTooLarge
	}
	return err
}

func (h *headLimit) Read(p []byte) (int, error) {
	if h.left < 0 {
		return h.r.Read(p)
	}
	if h.left == 0 {
		return 0, ErrHandshakeTooLarge
	}
	if len(p) > h.left {
		p = p[:h.left]
	}
	n, err := h.r.Read(p)
	h.left -= n
	return n, err
}

// ComputeAccept derives the Sec-WebSocket-Accept header value from the
// client's Sec-WebSocket-Key per RFC 6455 §4.2.2.
func ComputeAccept(key string) string {
	h := sha1.Sum([]byte(key + websocketGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// GenerateKey produces a random 16-byte base64 Sec-WebSocket-Key using rng
// (which may be deterministic for reproducible crawls).
func GenerateKey(rng *rand.Rand) string {
	var b [16]byte
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return base64.StdEncoding.EncodeToString(b[:])
}

// headerContainsToken reports whether a comma-separated header value
// contains tok, case-insensitively (RFC 7230 list semantics).
func headerContainsToken(value, tok string) bool {
	for _, part := range strings.Split(value, ",") {
		if strings.EqualFold(strings.TrimSpace(part), tok) {
			return true
		}
	}
	return false
}

// HandshakeRequest is the parsed, validated client opening handshake.
type HandshakeRequest struct {
	// Path is the request target.
	Path string
	// Host is the Host header value (virtual host).
	Host string
	// Key is the Sec-WebSocket-Key offered by the client.
	Key string
	// Origin is the Origin header, if present.
	Origin string
	// Protocols are the offered subprotocols in order.
	Protocols []string
	// Header holds all request headers.
	Header http.Header
}

// writeClientHandshake writes the opening handshake request line and
// headers for u to w. extra headers are appended verbatim.
func writeClientHandshake(w *bufio.Writer, u *urlutil.URL, key string, extra http.Header) error {
	target := u.Path
	if u.Query != "" {
		target += "?" + u.Query
	}
	fmt.Fprintf(w, "GET %s HTTP/1.1\r\n", target)
	fmt.Fprintf(w, "Host: %s\r\n", u.Host)
	fmt.Fprintf(w, "Upgrade: websocket\r\n")
	fmt.Fprintf(w, "Connection: Upgrade\r\n")
	fmt.Fprintf(w, "Sec-WebSocket-Key: %s\r\n", key)
	fmt.Fprintf(w, "Sec-WebSocket-Version: 13\r\n")
	// Emit extra headers in sorted order: map iteration order would
	// make the handshake request bytes differ run to run, breaking the
	// byte-identical recorded-crawl invariant.
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vs := extra[k]
		ck := textproto.CanonicalMIMEHeaderKey(k)
		switch ck {
		case "Host", "Upgrade", "Connection", "Sec-Websocket-Key", "Sec-Websocket-Version":
			continue // fixed by the protocol
		}
		for _, v := range vs {
			fmt.Fprintf(w, "%s: %s\r\n", ck, v)
		}
	}
	fmt.Fprintf(w, "\r\n")
	return w.Flush()
}

// readServerHandshake reads and validates the server's 101 response.
func readServerHandshake(r *bufio.Reader, key string) (http.Header, error) {
	tp := textproto.NewReader(r)
	line, err := tp.ReadLine()
	if err != nil {
		return nil, fmt.Errorf("wsproto: read status line: %w", err)
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || parts[0] != "HTTP/1.1" {
		return nil, fmt.Errorf("wsproto: malformed status line %q", line)
	}
	if parts[1] != "101" {
		return nil, fmt.Errorf("%w: got %s", ErrBadHandshakeStatus, parts[1])
	}
	mime, err := tp.ReadMIMEHeader()
	if err != nil {
		return nil, fmt.Errorf("wsproto: read response headers: %w", err)
	}
	hdr := http.Header(mime)
	if !strings.EqualFold(hdr.Get("Upgrade"), "websocket") {
		return nil, ErrBadUpgradeHeader
	}
	if !headerContainsToken(hdr.Get("Connection"), "Upgrade") {
		return nil, ErrBadConnectionHeader
	}
	if hdr.Get("Sec-Websocket-Accept") != ComputeAccept(key) {
		return nil, ErrBadAcceptKey
	}
	return hdr, nil
}

// validRequestTarget reports whether target is an origin-form request
// target net/http would route: a path from the root, no control bytes,
// and only well-formed percent-escapes.
func validRequestTarget(target string) bool {
	if !strings.HasPrefix(target, "/") {
		return false
	}
	for i := 0; i < len(target); i++ {
		switch c := target[i]; {
		case c < 0x20 || c == 0x7f:
			return false
		case c == '%':
			// Escapes are rare; let net/url judge them.
			_, err := url.ParseRequestURI(target)
			return err == nil
		}
	}
	return true
}

// readClientHandshake reads and validates a client opening handshake from
// r (server side). It accepts no request net/http's server would refuse
// to parse (FuzzReadClientHandshake holds it to http.ReadRequest).
func readClientHandshake(r *bufio.Reader) (*HandshakeRequest, error) {
	tp := textproto.NewReader(r)
	line, err := tp.ReadLine()
	if err != nil {
		return nil, fmt.Errorf("wsproto: read request line: %w", err)
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || parts[2] != "HTTP/1.1" {
		return nil, fmt.Errorf("wsproto: malformed request line %q", line)
	}
	mime, err := tp.ReadMIMEHeader()
	if err != nil {
		return nil, fmt.Errorf("wsproto: read request headers: %w", err)
	}
	hdr := http.Header(mime)
	return newHandshakeRequest(parts[0], parts[1], hdr.Get("Host"), hdr, hdr["Transfer-Encoding"])
}

// newHandshakeRequest is the one validator of a client opening
// handshake, whoever parsed it: ReadRequest's own reader above, or
// net/http, which keeps the host and the transfer encodings beside the
// header map rather than in it.
func newHandshakeRequest(method, target, host string, hdr http.Header, transferEncoding []string) (*HandshakeRequest, error) {
	if !validRequestTarget(target) {
		return nil, fmt.Errorf("wsproto: malformed request target %q", target)
	}
	if method != http.MethodGet {
		return nil, ErrNotGET
	}
	if !strings.EqualFold(hdr.Get("Upgrade"), "websocket") {
		return nil, ErrBadUpgradeHeader
	}
	if !headerContainsToken(hdr.Get("Connection"), "Upgrade") {
		return nil, ErrBadConnectionHeader
	}
	if hdr.Get("Sec-Websocket-Version") != "13" {
		return nil, ErrBadVersion
	}
	key := hdr.Get("Sec-Websocket-Key")
	if key == "" {
		return nil, ErrMissingKey
	}
	if len(hdr["Content-Length"]) > 0 || len(transferEncoding) > 0 {
		// An opening handshake has no body; bytes after the head are frames.
		return nil, ErrHandshakeBody
	}
	hs := &HandshakeRequest{
		Path:   target,
		Host:   host,
		Key:    key,
		Origin: hdr.Get("Origin"),
		Header: hdr,
	}
	if protos := hdr.Get("Sec-Websocket-Protocol"); protos != "" {
		for _, p := range strings.Split(protos, ",") {
			hs.Protocols = append(hs.Protocols, strings.TrimSpace(p))
		}
	}
	return hs, nil
}

// writeServerHandshake writes the 101 Switching Protocols response.
func writeServerHandshake(w *bufio.Writer, key, subprotocol string) error {
	fmt.Fprintf(w, "HTTP/1.1 101 Switching Protocols\r\n")
	fmt.Fprintf(w, "Upgrade: websocket\r\n")
	fmt.Fprintf(w, "Connection: Upgrade\r\n")
	fmt.Fprintf(w, "Sec-WebSocket-Accept: %s\r\n", ComputeAccept(key))
	if subprotocol != "" {
		fmt.Fprintf(w, "Sec-WebSocket-Protocol: %s\r\n", subprotocol)
	}
	fmt.Fprintf(w, "\r\n")
	return w.Flush()
}
