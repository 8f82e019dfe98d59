package wsproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/detrand"
	"repro/internal/urlutil"
)

// countingReader counts what the handshake parsers pull from the
// connection, so the fuzz targets can hold them to the head cap.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// capped builds the reader stack Accept and Dial build over a conn.
func capped(data []byte) (*bufio.Reader, *headLimit, *countingReader) {
	cr := &countingReader{r: bytes.NewReader(data)}
	head := newHeadLimit(cr)
	return bufio.NewReader(head), head, cr
}

// browserHandshake is the opening handshake the crawl's browser sends,
// byte for byte: writeClientHandshake with the browser's header set.
func browserHandshake(tb testing.TB) []byte {
	var buf bytes.Buffer
	hdr := http.Header{}
	hdr.Set("User-Agent", "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/57.0.2987.133 Safari/537.36")
	hdr.Set("Origin", "http://pub.example")
	hdr.Set("Cookie", "uid=0badcafe; _sess=00c0ffee")
	u := urlutil.MustParse("ws://ws.tracker.example/ws?sid=9f3a&n=2")
	if err := writeClientHandshake(bufio.NewWriter(&buf), u, GenerateKey(detrand.New(7)), hdr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// padded is a fuzz input grown by up to 1 MiB of filler. The size that
// matters to the head cap rides in an integer, so the inputs the fuzzer
// stores and minimizes stay a few hundred bytes.
func padded(data []byte, pad uint32) []byte {
	return append(data[:len(data):len(data)], bytes.Repeat([]byte("a"), int(pad%(1<<20+1)))...)
}

const fuzzKey = "dGhlIHNhbXBsZSBub25jZQ==" // RFC 6455 §1.3

func TestHandshakeHeadCap(t *testing.T) {
	huge := append([]byte("GET /ws HTTP/1.1\r\nHost: h\r\nX-Pad: "), bytes.Repeat([]byte("a"), 1<<20)...)
	br, head, cr := capped(huge)
	if _, err := readClientHandshake(br); !errors.Is(head.explain(err), ErrHandshakeTooLarge) {
		t.Errorf("1 MiB request header line: %v, want ErrHandshakeTooLarge", err)
	}
	if cr.n > maxHandshakeBytes {
		t.Errorf("request parser read %d bytes, cap is %d", cr.n, maxHandshakeBytes)
	}
	// Many small headers grow the head the same way one long line does.
	many := []byte("HTTP/1.1 101 Switching Protocols\r\n" + strings.Repeat("X-Pad: aaaaaaaaaaaaaaaa\r\n", 1<<16))
	br, head, cr = capped(many)
	if _, err := readServerHandshake(br, fuzzKey); !errors.Is(head.explain(err), ErrHandshakeTooLarge) {
		t.Errorf("1.5 MiB response head: %v, want ErrHandshakeTooLarge", err)
	}
	if cr.n > maxHandshakeBytes {
		t.Errorf("response parser read %d bytes, cap is %d", cr.n, maxHandshakeBytes)
	}
	// Once lifted, the same reader passes frames of any size through.
	head = newHeadLimit(bytes.NewReader(make([]byte, 3*maxHandshakeBytes)))
	head.lift()
	if n, err := io.Copy(io.Discard, head); n != 3*maxHandshakeBytes || err != nil {
		t.Errorf("lifted reader passed %d bytes, %v", n, err)
	}
}

// FuzzReadClientHandshake: arbitrary bytes never panic the server-side
// handshake parser and never make it read past the head cap, and
// whatever it accepts, net/http's ReadRequest plus FromHTTP — the
// parser the wire path has always used — accept too, with the same key,
// host, target, origin and protocols.
func FuzzReadClientHandshake(f *testing.F) {
	valid := browserHandshake(f)
	f.Add(valid, uint32(0))
	f.Add([]byte("GET /ws HTTP/1.1\r\nHost: h.example\r\nUpgrade: websocket\r\nConnection: keep-alive,\r\n Upgrade\r\n"+
		"Sec-WebSocket-Key: AAAAAAAAAAAAAAAAAAAAAA==\r\nSec-WebSocket-Version: 13\r\nSec-WebSocket-Protocol: chat,\r\n\tsuperchat\r\n\r\n"), uint32(0)) // folded headers
	f.Add([]byte("GET /ws HTTP/1.1\r\nHost: h\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"+
		"Sec-WebSocket-Key: AAAAAAAAAAAAAAAAAAAAAA==\r\nSec-WebSocket-Key: BBBBBBBBBBBBBBBBBBBBBB==\r\nSec-WebSocket-Version: 13\r\n\r\n"), uint32(0)) // duplicate key
	f.Add(bytes.TrimSuffix(valid, []byte("\r\n")), uint32(0))               // missing final CRLF
	f.Add(bytes.ReplaceAll(valid, []byte("\r\n"), []byte("\n")), uint32(0)) // bare LF
	f.Add([]byte("GET /ws HTTP/1.1\r\nHost: h\r\nX-Pad: "), uint32(1<<20))  // 1 MiB header line
	f.Add(valid, uint32(3*maxHandshakeBytes))                               // frames behind the head
	f.Add([]byte("GET /w%73?x=%zz HTTP/1.1\r\nHost: h\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: k\r\nSec-WebSocket-Version: 13\r\n\r\n"), uint32(0))
	f.Add([]byte("GET /ws HTTP/1.1\r\nHost: h\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: k\r\nSec-WebSocket-Version: 13\r\nContent-Length: 5\r\n\r\nhello"), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, pad uint32) {
		data = padded(data, pad)
		br, _, cr := capped(data)
		hs, err := readClientHandshake(br)
		if cr.n > maxHandshakeBytes {
			t.Fatalf("read %d bytes from the conn, cap is %d", cr.n, maxHandshakeBytes)
		}
		if err != nil {
			if hs != nil {
				t.Fatalf("error %v with a non-nil handshake", err)
			}
			return
		}
		r, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("accepted a request net/http refuses: %v\n%q", err, data)
		}
		// The net/http bridge runs the same validator on net/http's parse
		// and must read the same handshake out of it.
		viaHTTP, err := newHandshakeRequest(r.Method, r.RequestURI, r.Host, r.Header, r.TransferEncoding)
		if err != nil {
			t.Fatalf("accepted a request FromHTTP refuses: %v\n%q", err, data)
		}
		hs.Header, viaHTTP.Header = nil, nil // net/http moves Host out of the map
		if !reflect.DeepEqual(hs, viaHTTP) {
			t.Fatalf("read %+v, FromHTTP reads %+v\n%q", hs, viaHTTP, data)
		}
	})
}

// FuzzReadServerHandshake: arbitrary bytes never panic the client-side
// parser and never make it read past the head cap, and a response it
// accepts is a 101 that net/http's ReadResponse reads the same way.
func FuzzReadServerHandshake(f *testing.F) {
	var ok bytes.Buffer
	if err := writeServerHandshake(bufio.NewWriter(&ok), fuzzKey, "chat"); err != nil {
		f.Fatal(err)
	}
	valid := ok.Bytes()
	f.Add(valid, uint32(0))
	f.Add(append(append([]byte(nil), valid...), 0x81, 0x02, 'h', 'i'), uint32(0)) // a frame right behind the head
	f.Add(bytes.ReplaceAll(valid, []byte("Connection: Upgrade"), []byte("Connection: keep-alive,\r\n Upgrade")), uint32(0))
	f.Add(bytes.TrimSuffix(valid, []byte("\r\n")), uint32(0))
	f.Add([]byte("HTTP/1.1 502 Bad Gateway\r\nContent-Type: text/plain\r\nConnection: close\r\n\r\nunknown virtual host\n"), uint32(0))
	f.Add([]byte("HTTP/1.1xyz 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: s3pPLMBiTxaQ9kYGzzhZRbK+xOo=\r\n\r\n"), uint32(0))
	f.Add([]byte("HTTP/1.1 101 Switching Protocols\r\nX-Pad: "), uint32(1<<20)) // 1 MiB header line
	f.Fuzz(func(t *testing.T, data []byte, pad uint32) {
		data = padded(data, pad)
		br, _, cr := capped(data)
		hdr, err := readServerHandshake(br, fuzzKey)
		if cr.n > maxHandshakeBytes {
			t.Fatalf("read %d bytes from the conn, cap is %d", cr.n, maxHandshakeBytes)
		}
		if err != nil {
			return
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			t.Fatalf("accepted a response net/http refuses: %v\n%q", err, data)
		}
		if resp.StatusCode != http.StatusSwitchingProtocols ||
			resp.Header.Get("Sec-Websocket-Accept") != ComputeAccept(fuzzKey) ||
			resp.Header.Get("Sec-Websocket-Protocol") != hdr.Get("Sec-Websocket-Protocol") {
			t.Fatalf("accepted %q, net/http reads status %d, accept %q, protocol %q",
				data, resp.StatusCode, resp.Header.Get("Sec-Websocket-Accept"), resp.Header.Get("Sec-Websocket-Protocol"))
		}
	})
}
