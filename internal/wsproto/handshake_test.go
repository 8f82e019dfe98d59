package wsproto

import (
	"bufio"
	"bytes"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/urlutil"
)

// TestComputeAcceptRFCVector checks the worked example from RFC 6455 §1.3.
func TestComputeAcceptRFCVector(t *testing.T) {
	got := ComputeAccept("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Errorf("ComputeAccept = %q, want %q", got, want)
	}
}

func TestGenerateKeyDeterministic(t *testing.T) {
	a := GenerateKey(rand.New(rand.NewSource(7)))
	b := GenerateKey(rand.New(rand.NewSource(7)))
	c := GenerateKey(rand.New(rand.NewSource(8)))
	if a != b {
		t.Error("same seed produced different keys")
	}
	if a == c {
		t.Error("different seeds produced identical keys")
	}
	if len(a) != 24 { // base64 of 16 bytes
		t.Errorf("key length = %d, want 24", len(a))
	}
}

func TestClientHandshakeWire(t *testing.T) {
	var buf bytes.Buffer
	u := parseURL(t, "ws://tracker.example/collect?sid=9")
	hdr := http.Header{}
	hdr.Set("Origin", "http://pub.example")
	hdr.Set("Cookie", "uid=42")
	hdr.Set("Host", "evil-override.example") // must be ignored
	if err := writeClientHandshake(bufio.NewWriter(&buf), u, "KEYKEYKEYKEYKEYKEYKEY==", hdr); err != nil {
		t.Fatal(err)
	}
	wire := buf.String()
	for _, want := range []string{
		"GET /collect?sid=9 HTTP/1.1\r\n",
		"Host: tracker.example\r\n",
		"Upgrade: websocket\r\n",
		"Connection: Upgrade\r\n",
		"Sec-WebSocket-Key: KEYKEYKEYKEYKEYKEYKEY==\r\n",
		"Sec-WebSocket-Version: 13\r\n",
		"Origin: http://pub.example\r\n",
		"Cookie: uid=42\r\n",
	} {
		if !strings.Contains(wire, want) {
			t.Errorf("handshake missing %q in:\n%s", want, wire)
		}
	}
	if strings.Contains(wire, "evil-override") {
		t.Error("extra Host header was not suppressed")
	}

	// The same wire bytes must parse back on the server side.
	hs, err := readClientHandshake(bufio.NewReader(strings.NewReader(wire)))
	if err != nil {
		t.Fatalf("readClientHandshake: %v", err)
	}
	if hs.Host != "tracker.example" || hs.Path != "/collect?sid=9" || hs.Key != "KEYKEYKEYKEYKEYKEYKEY==" || hs.Origin != "http://pub.example" {
		t.Errorf("parsed handshake = %+v", hs)
	}
}

func TestServerHandshakeWire(t *testing.T) {
	var buf bytes.Buffer
	if err := writeServerHandshake(bufio.NewWriter(&buf), "dGhlIHNhbXBsZSBub25jZQ==", "chat"); err != nil {
		t.Fatal(err)
	}
	hdr, err := readServerHandshake(bufio.NewReader(bytes.NewReader(buf.Bytes())), "dGhlIHNhbXBsZSBub25jZQ==")
	if err != nil {
		t.Fatalf("readServerHandshake: %v", err)
	}
	if hdr.Get("Sec-Websocket-Protocol") != "chat" {
		t.Errorf("subprotocol = %q", hdr.Get("Sec-Websocket-Protocol"))
	}
}

func TestServerHandshakeRejectsWrongAccept(t *testing.T) {
	resp := "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: bogus\r\n\r\n"
	if _, err := readServerHandshake(bufio.NewReader(strings.NewReader(resp)), "anykey"); err != ErrBadAcceptKey {
		t.Errorf("got %v, want ErrBadAcceptKey", err)
	}
}

func TestServerHandshakeRejectsNon101(t *testing.T) {
	resp := "HTTP/1.1 403 Forbidden\r\n\r\n"
	_, err := readServerHandshake(bufio.NewReader(strings.NewReader(resp)), "k")
	if err == nil || !strings.Contains(err.Error(), "101") {
		t.Errorf("got %v, want status error", err)
	}
}

func TestClientHandshakeValidation(t *testing.T) {
	base := func(mutate func(lines []string) []string) string {
		lines := []string{
			"GET /ws HTTP/1.1",
			"Host: h.example",
			"Upgrade: websocket",
			"Connection: keep-alive, Upgrade",
			"Sec-WebSocket-Key: AAAAAAAAAAAAAAAAAAAAAA==",
			"Sec-WebSocket-Version: 13",
		}
		if mutate != nil {
			lines = mutate(lines)
		}
		return strings.Join(lines, "\r\n") + "\r\n\r\n"
	}

	if _, err := readClientHandshake(bufio.NewReader(strings.NewReader(base(nil)))); err != nil {
		t.Fatalf("valid handshake rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func([]string) []string
		want   error
	}{
		{"post", func(l []string) []string { l[0] = "POST /ws HTTP/1.1"; return l }, ErrNotGET},
		{"no-upgrade", func(l []string) []string { l[2] = "Upgrade: h2c"; return l }, ErrBadUpgradeHeader},
		{"no-connection", func(l []string) []string { l[3] = "Connection: close"; return l }, ErrBadConnectionHeader},
		{"no-key", func(l []string) []string { return append(l[:4], l[5]) }, ErrMissingKey},
		{"bad-version", func(l []string) []string { l[5] = "Sec-WebSocket-Version: 8"; return l }, ErrBadVersion},
		{"declared-body", func(l []string) []string { return append(l, "Content-Length: 0") }, ErrHandshakeBody},
		// The body itself is empty: net/http waits for a declared one
		// before it lets the refusal out.
		{"chunked-body", func(l []string) []string { return append(l, "Transfer-Encoding: chunked", "", "0") }, ErrHandshakeBody},
	}
	// The same bytes through net/http and the bridge: one validator, so
	// the same refusal, answered 400 either way.
	bridged := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := FromHTTP(w, r)
		bridged <- err
	}))
	defer srv.Close()
	for _, tc := range cases {
		_, err := readClientHandshake(bufio.NewReader(strings.NewReader(base(tc.mutate))))
		if err != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		nc, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write([]byte(base(tc.mutate))); err != nil {
			t.Fatal(err)
		}
		status, _ := bufio.NewReader(nc).ReadString('\n')
		nc.Close()
		if err := <-bridged; err != tc.want || !strings.HasPrefix(status, "HTTP/1.1 400 ") {
			t.Errorf("%s over net/http: got %v and %q, want %v and a 400", tc.name, err, status, tc.want)
		}
	}
}

func TestSubprotocolParsing(t *testing.T) {
	req := "GET /ws HTTP/1.1\r\nHost: h\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Key: AAAAAAAAAAAAAAAAAAAAAA==\r\nSec-WebSocket-Version: 13\r\n" +
		"Sec-WebSocket-Protocol: chat, superchat\r\n\r\n"
	hs, err := readClientHandshake(bufio.NewReader(strings.NewReader(req)))
	if err != nil {
		t.Fatal(err)
	}
	if len(hs.Protocols) != 2 || hs.Protocols[0] != "chat" || hs.Protocols[1] != "superchat" {
		t.Errorf("protocols = %v", hs.Protocols)
	}
}

func TestHeaderContainsToken(t *testing.T) {
	tests := []struct {
		value, tok string
		want       bool
	}{
		{"Upgrade", "upgrade", true},
		{"keep-alive, Upgrade", "Upgrade", true},
		{"keep-alive", "Upgrade", false},
		{"", "Upgrade", false},
		{"UPGRADE", "upgrade", true},
	}
	for _, tc := range tests {
		if got := headerContainsToken(tc.value, tc.tok); got != tc.want {
			t.Errorf("headerContainsToken(%q, %q) = %v, want %v", tc.value, tc.tok, got, tc.want)
		}
	}
}

// parseURL is urlutil.Parse for a test's URL literals: a malformed one
// fails the test.
func parseURL(tb testing.TB, raw string) *urlutil.URL {
	tb.Helper()
	u, err := urlutil.Parse(raw)
	if err != nil {
		tb.Fatal(err)
	}
	return u
}
