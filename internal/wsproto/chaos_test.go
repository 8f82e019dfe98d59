package wsproto

// Regression tests for the handshake/teardown hardening driven by the
// fault-injection transport (internal/faultnet): stalled handshakes
// must time out instead of wedging goroutines, and frames truncated at
// arbitrary byte positions must surface errors — never hang or panic.

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// withHandshakeTimeout overrides the package handshake deadline for one
// test (not parallel-safe, so none of these tests call t.Parallel).
func withHandshakeTimeout(t *testing.T, d time.Duration) {
	t.Helper()
	old := HandshakeTimeout
	HandshakeTimeout = d
	t.Cleanup(func() { HandshakeTimeout = old })
}

// TestAcceptHalfWrittenHandshakeTimesOut is the slow-loris regression:
// before the handshake deadline existed, a client that wrote half a
// request line and went silent parked the accepting goroutine forever.
func TestAcceptHalfWrittenHandshakeTimesOut(t *testing.T) {
	withHandshakeTimeout(t, 100*time.Millisecond)
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		// Half a handshake, then silence — but keep draining so the
		// server's 400 reply cannot be what unblocks it.
		_, _ = client.Write([]byte("GET /socket HTTP/1.1\r\nHost: tr"))
		_, _ = io.Copy(io.Discard, client)
	}()
	done := make(chan error, 1)
	go func() {
		_, err := ReadRequest(server)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ReadRequest succeeded on a half-written handshake")
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("ReadRequest err = %v, want a deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadRequest wedged on a half-written handshake")
	}
}

// TestWriteHandshakeErrorBounded: the 400 reply to a malformed
// handshake must not block forever on a peer that stopped reading.
// net.Pipe is fully synchronous — with no reader, an unbounded write
// blocks eternally, which is exactly what the old code did.
func TestWriteHandshakeErrorBounded(t *testing.T) {
	withHandshakeTimeout(t, 100*time.Millisecond)
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		// A complete but malformed handshake (POST), then no reads.
		_, _ = client.Write([]byte("POST /socket HTTP/1.1\r\nHost: t.example\r\n\r\n"))
	}()
	done := make(chan error, 1)
	go func() {
		_, err := ReadRequest(server)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrNotGET) {
			t.Errorf("ReadRequest err = %v, want ErrNotGET", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writeHandshakeError wedged on a non-reading peer")
	}
}

// TestDialHandshakeDeadlineWithoutContextDeadline: a dial whose context
// carries no deadline must still bound the handshake I/O.
func TestDialHandshakeDeadlineWithoutContextDeadline(t *testing.T) {
	withHandshakeTimeout(t, 100*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// Accept and go silent: never answer the handshake.
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		_, _ = io.Copy(io.Discard, nc)
	}()
	d := Dialer{
		ResolveAddr: func(string) string { return ln.Addr().String() },
		Rand:        rand.New(rand.NewSource(1)),
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := d.Dial(context.Background(), "ws://tracker.example/socket")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Dial succeeded against a silent server")
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("Dial err = %v, want a deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial without a context deadline wedged on a silent server")
	}
}

// truncatedServerConn builds a client-side Conn whose transport is cut
// after exactly `cut` bytes of the given server-to-client wire bytes,
// using faultnet truncation (with an optional RST-style abort).
func truncatedServerConn(t *testing.T, wire []byte, cut int64, reset bool) *Conn {
	t.Helper()
	a, b := net.Pipe()
	go func() {
		_, _ = b.Write(wire)
		_ = b.Close()
	}()
	p := faultnet.Profile{
		TruncateProb: 1, TruncateMin: cut, TruncateMax: cut,
	}
	if reset {
		p.ResetProb = 1
	}
	fc := faultnet.WrapConn(a, p, 1)
	c := newConn(fc, nil, true, rand.New(rand.NewSource(1)))
	t.Cleanup(func() { _ = c.Close(); _ = b.Close() })
	return c
}

// TestReadMessageTruncatedFrames: frames cut mid-header and mid-payload
// must error out of ReadMessage — never hang, never panic, never yield
// a partial message as success.
func TestReadMessageTruncatedFrames(t *testing.T) {
	// Unmasked server text frame "hello": 2-byte header + 5-byte payload.
	wire := []byte{0x81, 0x05, 'h', 'e', 'l', 'l', 'o'}
	cases := []struct {
		name  string
		cut   int64
		reset bool
	}{
		{"mid-header-clean", 1, false},
		{"mid-header-reset", 1, true},
		{"mid-payload-clean", 4, false},
		{"mid-payload-reset", 4, true},
		{"end-of-header", 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := truncatedServerConn(t, wire, tc.cut, tc.reset)
			type result struct {
				msg []byte
				err error
			}
			done := make(chan result, 1)
			go func() {
				_, msg, err := conn.ReadMessage()
				done <- result{msg, err}
			}()
			select {
			case r := <-done:
				if r.err == nil {
					t.Fatalf("truncated frame decoded as message %q", r.msg)
				}
				if tc.reset && !errors.Is(r.err, faultnet.ErrInjectedReset) {
					t.Errorf("err = %v, want injected reset", r.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("ReadMessage hung on a truncated frame")
			}
		})
	}
}

// TestWriteMessageTruncatedTransport: a write budget exhausted
// mid-frame must fail the write, not hang.
func TestWriteMessageTruncatedTransport(t *testing.T) {
	a, b := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, b) }()
	fc := faultnet.WrapConn(a, faultnet.Profile{
		TruncateProb: 1, TruncateMin: 3, TruncateMax: 3,
	}, 1)
	conn := newConn(fc, nil, true, rand.New(rand.NewSource(1)))
	defer conn.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- conn.WriteMessage(OpText, []byte("a payload longer than the budget")) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write over a 3-byte budget succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WriteMessage hung on a truncated transport")
	}
}
