package wsproto

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// pipePair builds a connected client/server Conn pair over net.Pipe,
// skipping the handshake (which has its own tests).
func pipePair(t *testing.T) (client, server *Conn) {
	t.Helper()
	cc, sc := net.Pipe()
	client = newConn(cc, nil, true, rand.New(rand.NewSource(7)))
	server = newConn(sc, nil, false, rand.New(rand.NewSource(8)))
	t.Cleanup(func() {
		client.shutdown()
		server.shutdown()
	})
	return client, server
}

func TestConnEcho(t *testing.T) {
	client, server := pipePair(t)
	done := make(chan error, 1)
	go func() {
		op, msg, err := server.ReadMessage()
		if err != nil {
			done <- err
			return
		}
		if op != OpText || string(msg) != "hello tracker" {
			done <- errors.New("server got wrong message")
			return
		}
		done <- server.WriteMessage(OpText, []byte("ack"))
	}()
	if err := client.WriteMessage(OpText, []byte("hello tracker")); err != nil {
		t.Fatal(err)
	}
	op, msg, err := client.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(msg) != "ack" {
		t.Errorf("client got (%v, %q)", op, msg)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// writeFragmented sends payload as one op message split into frames of
// at most chunk bytes.
func writeFragmented(c *Conn, op Opcode, payload []byte, chunk int) error {
	for first := true; first || len(payload) > 0; first = false {
		n := min(chunk, len(payload))
		f := &Frame{FIN: n == len(payload), Opcode: OpContinuation, Payload: payload[:n]}
		if first {
			f.Opcode = op
		}
		if err := c.writeFrame(f); err != nil {
			return err
		}
		payload = payload[n:]
	}
	return nil
}

func TestConnFragmentedMessage(t *testing.T) {
	client, server := pipePair(t)
	payload := bytes.Repeat([]byte("0123456789"), 100)
	go func() {
		_ = writeFragmented(client, OpBinary, payload, 64)
	}()
	op, msg, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpBinary || !bytes.Equal(msg, payload) {
		t.Errorf("fragmented reassembly failed: %d bytes, opcode %v", len(msg), op)
	}
}

// TestConnPingPong: a read answers a ping with a pong carrying the same
// payload, and a read passes over a pong.
func TestConnPingPong(t *testing.T) {
	client, server, _, s2c := memPair(7, 8)
	if err := client.writeFrame(&Frame{FIN: true, Opcode: OpPing, Payload: []byte("beat")}); err != nil {
		t.Fatal(err)
	}
	if err := client.WriteMessage(OpText, []byte("data")); err != nil {
		t.Fatal(err)
	}
	op, msg, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(msg) != "data" {
		t.Errorf("got (%v, %q)", op, msg)
	}
	if pong, err := readFrame(wireConn(s2c.Bytes(), true)); err != nil || pong.Opcode != OpPong || string(pong.Payload) != "beat" {
		t.Errorf("server answered the ping with %+v, %v", pong, err)
	}
	if err := server.WriteMessage(OpText, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if _, msg, err := client.ReadMessage(); err != nil || string(msg) != "after" {
		t.Errorf("client read past the pong: %q, %v", msg, err)
	}
}

func TestConnCloseHandshake(t *testing.T) {
	client, server := pipePair(t)
	go func() {
		_ = client.writeFrame(&Frame{FIN: true, Opcode: OpClose, Payload: closePayload(CloseGoingAway, "navigating away")})
		_ = client.shutdown()
	}()
	_, _, err := server.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want CloseError", err)
	}
	if ce.Code != CloseGoingAway || ce.Reason != "navigating away" {
		t.Errorf("close = %+v", ce)
	}
}

func TestConnWriteAfterClose(t *testing.T) {
	client, server := pipePair(t)
	go func() { _, _, _ = server.ReadMessage() }()
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.WriteMessage(OpText, []byte("late")); err != ErrConnClosed {
		t.Errorf("write after close: got %v, want ErrConnClosed", err)
	}
}

func TestConnRejectsUnmaskedClientFrame(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	server := newConn(sc, nil, false, rand.New(rand.NewSource(9)))
	defer server.shutdown()
	go func() {
		// Write an unmasked frame from the "client" side: a protocol
		// violation the server must reject.
		_ = naiveWriteFrame(cc, &Frame{FIN: true, Opcode: OpText, Payload: []byte("x")})
		// Drain whatever the server sends back (close frame).
		io.Copy(io.Discard, cc)
	}()
	_, _, err := server.ReadMessage()
	if err != ErrUnmaskedClient {
		t.Errorf("got %v, want ErrUnmaskedClient", err)
	}
}

func TestConnRejectsInvalidUTF8Text(t *testing.T) {
	client, server := pipePair(t)
	go func() {
		_ = client.WriteMessage(OpText, []byte{0xFF, 0xFE, 0xFD})
		io.Copy(io.Discard, client.conn)
	}()
	_, _, err := server.ReadMessage()
	if err != ErrInvalidUTF8 {
		t.Errorf("got %v, want ErrInvalidUTF8", err)
	}
}

// TestConnFailsProtocolViolations is an Autobahn-style RFC 6455 case
// table: each row sends the server one frame the RFC forbids and checks
// both the error ReadMessage returns and the close code the peer reads
// once the caller closes, as a deferred Close does.
func TestConnFailsProtocolViolations(t *testing.T) {
	// frame builds a client frame masked with a zero key; b0 holds FIN,
	// RSV and the opcode, ext the extended length.
	frame := func(b0, len7 byte, ext, payload []byte) []byte {
		b := append(append([]byte{b0, 0x80 | len7}, ext...), 0, 0, 0, 0)
		return append(b, payload...)
	}
	short := func(b0 byte, payload []byte) []byte { return frame(b0, byte(len(payload)), nil, payload) }
	closeWith := func(code uint16, reason string) []byte {
		return short(0x88, append(binary.BigEndian.AppendUint16(nil, code), reason...))
	}
	for _, tc := range []struct {
		name string
		in   []byte
		err  error
		code int
	}{
		{"reserved bit 1", short(0xC1, []byte("x")), ErrReservedBits, CloseProtocolError},
		{"reserved bit 3", short(0x91, []byte("x")), ErrReservedBits, CloseProtocolError},
		{"reserved data opcode", short(0x83, nil), ErrInvalidOpcode, CloseProtocolError},
		{"reserved control opcode", short(0x8B, nil), ErrInvalidOpcode, CloseProtocolError},
		{"non-minimal 16-bit length", frame(0x81, 126, []byte{0, 5}, []byte("hello")), ErrBadPayloadLength, CloseProtocolError},
		{"non-minimal 64-bit length", frame(0x82, 127, []byte{0, 0, 0, 0, 0, 0, 0, 200}, make([]byte, 200)), ErrBadPayloadLength, CloseProtocolError},
		{"oversized ping", frame(0x89, 126, []byte{0, 126}, make([]byte, 126)), ErrControlTooLong, CloseProtocolError},
		{"fragmented ping", short(0x09, []byte("p")), ErrControlFragmented, CloseProtocolError},
		{"1-byte close", short(0x88, []byte{0x03}), ErrInvalidCloseFrame, CloseProtocolError},
		{"close code 1005", closeWith(1005, ""), ErrInvalidCloseFrame, CloseProtocolError},
		{"close code 1006", closeWith(1006, ""), ErrInvalidCloseFrame, CloseProtocolError},
		{"close code 999", closeWith(999, ""), ErrInvalidCloseFrame, CloseProtocolError},
		{"close code 5000", closeWith(5000, ""), ErrInvalidCloseFrame, CloseProtocolError},
		{"close reason not UTF-8", closeWith(1000, "\xff\xfe"), ErrInvalidUTF8, CloseInvalidPayload},
		{"text not UTF-8", short(0x81, []byte{0xFF, 0xFE, 0xFD}), ErrInvalidUTF8, CloseInvalidPayload},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc, sc := net.Pipe()
			server := newConn(sc, nil, false, rand.New(rand.NewSource(9)))
			// net.Pipe is unbuffered: the peer writes and reads on goroutines
			// of their own, and the write ends when the server shuts down.
			wrote := make(chan struct{})
			go func() {
				_, _ = cc.Write(tc.in)
				close(wrote)
			}()
			peer := make(chan *Frame, 1)
			go func() {
				f, _ := readFrame(newConn(cc, nil, true, rand.New(rand.NewSource(10))))
				peer <- f
			}()
			_, _, err := server.ReadMessage()
			server.Close()
			var f *Frame
			select {
			case f = <-peer:
			case <-time.After(5 * time.Second):
				t.Fatal("peer read nothing")
			}
			cc.Close()
			<-wrote
			if err != tc.err {
				t.Errorf("ReadMessage: %v, want %v", err, tc.err)
			}
			if f == nil || f.Opcode != OpClose {
				t.Fatalf("peer read %+v, want a close frame", f)
			}
			if code, _, _ := parseClosePayload(f.Payload); code != tc.code {
				t.Errorf("peer read close code %d, want %d", code, tc.code)
			}
		})
	}
}

func TestConnRejectsStrayContinuation(t *testing.T) {
	client, server := pipePair(t)
	go func() {
		_ = client.writeFrame(&Frame{FIN: true, Opcode: OpContinuation, Payload: []byte("x")})
		io.Copy(io.Discard, client.conn)
	}()
	_, _, err := server.ReadMessage()
	if err != ErrUnexpectedContinue {
		t.Errorf("got %v, want ErrUnexpectedContinue", err)
	}
}

func TestConnRejectsInterleavedDataFrames(t *testing.T) {
	client, server := pipePair(t)
	go func() {
		_ = client.writeFrame(&Frame{FIN: false, Opcode: OpText, Payload: []byte("a")})
		_ = client.writeFrame(&Frame{FIN: true, Opcode: OpText, Payload: []byte("b")})
		io.Copy(io.Discard, client.conn)
	}()
	_, _, err := server.ReadMessage()
	if err != ErrExpectedContinue {
		t.Errorf("got %v, want ErrExpectedContinue", err)
	}
}

func TestConnMessageSizeLimit(t *testing.T) {
	client, server := pipePair(t)
	server.maxMsgSize = 100
	errc := make(chan error, 1)
	go func() {
		_, _, err := server.ReadMessage()
		errc <- err
	}()
	go func() {
		// Under-limit frames accumulate via fragmentation past the
		// limit; the write may block or fail once the server drops the
		// connection, so it runs on its own goroutine.
		_ = writeFragmented(client, OpBinary, make([]byte, 300), 50)
	}()
	go io.Copy(io.Discard, client.conn)
	select {
	case err := <-errc:
		if err != ErrFrameTooLarge {
			t.Errorf("got %v, want ErrFrameTooLarge", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not enforce message size limit")
	}
}

// TestDialAndUpgradeOverTCP exercises the full client/server handshake and
// data exchange over a real loopback TCP connection through net/http.
func TestDialAndUpgradeOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		p, err := FromHTTP(w, r)
		if err != nil {
			return
		}
		conn, err := p.Accept("")
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			op, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if err := conn.WriteMessage(op, append([]byte("echo:"), msg...)); err != nil {
				return
			}
		}
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	d := Dialer{
		ResolveAddr: func(hostport string) string { return ln.Addr().String() },
		Header:      http.Header{"Origin": {"http://pub.example"}},
		Rand:        rand.New(rand.NewSource(11)),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, hdr, err := d.Dial(ctx, "ws://tracker.example/echo")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if hdr.Get("Upgrade") == "" {
		t.Error("missing Upgrade in response headers")
	}
	for i := 0; i < 3; i++ {
		if err := conn.WriteMessage(OpText, []byte("ping-data")); err != nil {
			t.Fatal(err)
		}
		op, msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if op != OpText || string(msg) != "echo:ping-data" {
			t.Errorf("round %d: got (%v, %q)", i, op, msg)
		}
	}
}

func TestDialRejectsNonWSURL(t *testing.T) {
	d := Dialer{Rand: rand.New(rand.NewSource(12))}
	_, _, err := d.Dial(context.Background(), "http://example.com/")
	if err == nil || !strings.Contains(err.Error(), "not a ws/wss URL") {
		t.Errorf("got %v", err)
	}
}

// TestDialRequiresRand: masking keys and nonces must come from the
// caller's seed, so a Dialer without Rand fails before it dials.
func TestDialRequiresRand(t *testing.T) {
	d := Dialer{NetDial: func(context.Context, string, string) (net.Conn, error) {
		t.Error("Dial reached the network with a nil Rand")
		return nil, errors.New("dial refused")
	}}
	_, _, err := d.Dial(context.Background(), "ws://tracker.example/socket")
	if err == nil || !strings.Contains(err.Error(), "Rand is nil") {
		t.Errorf("got %v, want a nil-Rand error", err)
	}
}

// TestAcceptRaw exercises the raw-listener server path (ReadRequest,
// then Accept) including subprotocol negotiation.
func TestAcceptRaw(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		p, err := ReadRequest(nc)
		if err != nil {
			return
		}
		sub := ""
		for _, offered := range p.Request.Protocols {
			if offered == "tracking-v2" {
				sub = offered
			}
		}
		conn, err := p.Accept(sub)
		if err != nil {
			return
		}
		defer conn.Close()
		_ = conn.WriteMessage(OpText, []byte("host="+p.Request.Host))
		_, _, _ = conn.ReadMessage() // wait for close
	}()

	d := Dialer{
		ResolveAddr: func(string) string { return ln.Addr().String() },
		Header:      http.Header{"Sec-WebSocket-Protocol": {"tracking-v1, tracking-v2"}},
		Rand:        rand.New(rand.NewSource(13)),
	}
	conn, _, err := d.Dial(context.Background(), "ws://rt.example/feed")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Subprotocol != "tracking-v2" {
		t.Errorf("subprotocol = %q", conn.Subprotocol)
	}
	_, msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "host=rt.example" {
		t.Errorf("server saw host %q", msg)
	}
}
