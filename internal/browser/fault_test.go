package browser

// Tests for the socket-loader hardening that rides with the faultnet
// work: the per-socket timeout must bound *inactivity* (refreshing per
// message) rather than whole-session length, and transient dial
// failures must be retried with seeded backoff without duplicating
// trace events.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/devtools"
	"repro/internal/script"
)

// slowPushWSServer completes the WebSocket handshake, then pushes n
// text frames spaced `gap` apart — a live-chat-shaped peer whose
// session outlives any single-message gap many times over.
func slowPushWSServer(t *testing.T, n int, gap time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				key := readHeaders(nc)
				writeUpgrade(nc, key)
				for i := 0; i < n; i++ {
					time.Sleep(gap)
					msg := fmt.Sprintf("push-%d", i)
					frame := append([]byte{0x81, byte(len(msg))}, msg...)
					if _, err := nc.Write(frame); err != nil {
						return
					}
				}
				// Hold the conn open until the client closes.
				buf := make([]byte, 256)
				nc.SetReadDeadline(time.Now().Add(10 * time.Second))
				for {
					if _, err := nc.Read(buf); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// flakyWSServer kills the first `failures` connections before the
// handshake completes, then behaves: handshake + one pushed frame.
func flakyWSServer(t *testing.T, failures int, attempts *atomic.Int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			a := attempts.Add(1)
			go func(nc net.Conn, attempt int64) {
				defer nc.Close()
				if attempt <= int64(failures) {
					// Transient failure: drop the conn mid-handshake.
					return
				}
				key := readHeaders(nc)
				writeUpgrade(nc, key)
				msg := "served"
				_, _ = nc.Write(append([]byte{0x81, byte(len(msg))}, msg...))
				buf := make([]byte, 256)
				nc.SetReadDeadline(time.Now().Add(10 * time.Second))
				for {
					if _, err := nc.Read(buf); err != nil {
						return
					}
				}
			}(nc, a)
		}
	}()
	return ln.Addr().String()
}

// socketEnv serves a one-page site whose script opens one socket to
// ws://feed.example routed to wsAddr.
func socketEnv(t *testing.T, wsAddr string, expect int, cfg Config) *Browser {
	t.Helper()
	prog := &script.Program{Ops: []script.Op{
		{Do: script.OpOpenWebSocket, URL: fmt.Sprintf("ws://feed.example/live?n=%d", expect),
			Send:   []script.MessageSpec{{Kinds: []string{"ua"}}},
			Expect: expect},
	}}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, `<!DOCTYPE html><html><head><script src="/s.js"></script></head><body><h1>t</h1></body></html>`)
	})
	mux.HandleFunc("/s.js", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		_, _ = w.Write(prog.MustEncode())
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)

	httpAddr := strings.TrimPrefix(hs.URL, "http://")
	cfg.HTTPClient = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, network, httpAddr)
		},
	}}
	cfg.ResolveWS = func(hostport string) string {
		if strings.HasPrefix(hostport, "feed.example") {
			return wsAddr
		}
		return hostport
	}
	if cfg.Version == 0 {
		cfg.Version = 57
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return New(cfg)
}

func countFrames(res *PageResult) (received int) {
	for _, ev := range res.Trace.Events {
		if _, ok := ev.(*devtools.WebSocketFrameReceived); ok {
			received++
		}
	}
	return
}

// TestSocketTimeoutRefreshesPerMessage: three pushes spaced 250ms with
// a 400ms SocketTimeout. The session runs ~750ms — under the old
// single absolute deadline it died after 400ms with at most one
// message; with per-message refresh all three arrive.
func TestSocketTimeoutRefreshesPerMessage(t *testing.T) {
	addr := slowPushWSServer(t, 3, 250*time.Millisecond)
	b := socketEnv(t, addr, 3, Config{SocketTimeout: 400 * time.Millisecond})
	res := visitWithDeadline(t, b)
	if got := countFrames(res); got != 3 {
		t.Errorf("received %d frames, want 3 (idle deadline not refreshing?)", got)
	}
	created, closed := socketEvents(res)
	if created != 1 || closed != 1 {
		t.Errorf("socket events: created=%d closed=%d", created, closed)
	}
}

// TestSocketTimeoutStillBoundsInactivity: the refresh must not disable
// the timeout — a server that goes quiet forever still fails within
// one idle interval.
func TestSocketTimeoutStillBoundsInactivity(t *testing.T) {
	// One push, then silence; the script expects two messages.
	addr := slowPushWSServer(t, 1, 10*time.Millisecond)
	b := socketEnv(t, addr, 2, Config{SocketTimeout: 300 * time.Millisecond})
	start := time.Now()
	res := visitWithDeadline(t, b)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("silent socket held the page for %v", elapsed)
	}
	if got := countFrames(res); got != 1 {
		t.Errorf("received %d frames, want 1", got)
	}
}

// TestDialRetryRecoversTransientFailure: the first connection dies
// mid-handshake; with DialRetries the socket succeeds on the second
// attempt, and the trace still shows exactly one socket lifecycle.
func TestDialRetryRecoversTransientFailure(t *testing.T) {
	var attempts atomic.Int64
	addr := flakyWSServer(t, 1, &attempts)
	b := socketEnv(t, addr, 1, Config{
		SocketTimeout:    2 * time.Second,
		DialRetries:      2,
		DialRetryBackoff: 5 * time.Millisecond,
	})
	res := visitWithDeadline(t, b)
	if attempts.Load() != 2 {
		t.Errorf("server saw %d connection attempts, want 2", attempts.Load())
	}
	if res.NetErrors != 0 {
		t.Errorf("NetErrors = %d after a recovered dial", res.NetErrors)
	}
	ok101 := false
	for _, ev := range res.Trace.Events {
		if h, is := ev.(*devtools.WebSocketHandshakeResponseReceived); is && h.Status == 101 {
			ok101 = true
		}
	}
	if !ok101 {
		t.Error("no successful handshake in trace")
	}
	if got := countFrames(res); got != 1 {
		t.Errorf("received %d frames, want 1", got)
	}
	created, closed := socketEvents(res)
	if created != 1 || closed != 1 {
		t.Errorf("retries duplicated socket events: created=%d closed=%d", created, closed)
	}
}

// TestDialRetryExhaustion: when every attempt fails, the socket is
// accounted a NetError after exactly 1+DialRetries attempts — one
// created/closed pair, no hang.
func TestDialRetryExhaustion(t *testing.T) {
	var attempts atomic.Int64
	addr := flakyWSServer(t, 1<<30, &attempts)
	b := socketEnv(t, addr, 1, Config{
		SocketTimeout:    500 * time.Millisecond,
		DialRetries:      2,
		DialRetryBackoff: 5 * time.Millisecond,
	})
	res := visitWithDeadline(t, b)
	if attempts.Load() != 3 {
		t.Errorf("server saw %d attempts, want 3 (1 + 2 retries)", attempts.Load())
	}
	if res.NetErrors == 0 {
		t.Error("exhausted retries not counted as a NetError")
	}
	created, closed := socketEvents(res)
	if created != 1 || closed != 1 {
		t.Errorf("socket events: created=%d closed=%d", created, closed)
	}
}
