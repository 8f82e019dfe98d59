package browser

// Failure-injection tests: the crawler meets the real web's worth of
// broken servers, so a misbehaving WebSocket endpoint must never hang a
// page load or corrupt the trace — it must surface as a NetError or a
// closed socket and let the crawl continue.

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
	"repro/internal/wsproto"
)

// misbehaviour selects what the hostile WebSocket server does.
type misbehaviour int

const (
	behaveGarbageAfterHandshake misbehaviour = iota
	behaveCloseMidFrame
	behaveNeverRespond
	behaveRejectHandshake
)

// hostileWSServer accepts raw TCP and misbehaves per the configured
// mode. It returns the listener address.
func hostileWSServer(t *testing.T, mode misbehaviour) string {
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
				switch mode {
				case behaveNeverRespond:
					// Accept the TCP connection and say nothing.
					time.Sleep(30 * time.Second)
				case behaveRejectHandshake:
					readHeaders(nc)
					fmt.Fprintf(nc, "HTTP/1.1 403 Forbidden\r\nConnection: close\r\n\r\n")
				case behaveGarbageAfterHandshake:
					key := readHeaders(nc)
					writeUpgrade(nc, key)
					// Reserved bits set, nonsense opcode, then junk.
					nc.Write([]byte{0xFF, 0x7F, 0x01, 0x02, 0x03, 0x04})
				case behaveCloseMidFrame:
					key := readHeaders(nc)
					writeUpgrade(nc, key)
					// Header promises 200 bytes; deliver 3 and vanish.
					nc.Write([]byte{0x81, 126, 0x00, 200, 'a', 'b', 'c'})
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// readHeaders consumes the request head and returns the client's
// Sec-WebSocket-Key.
func readHeaders(nc net.Conn) string {
	buf := make([]byte, 4096)
	var all []byte
	key := ""
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		n, err := nc.Read(buf)
		if n > 0 {
			all = append(all, buf[:n]...)
		}
		if err != nil || strings.Contains(string(all), "\r\n\r\n") {
			break
		}
	}
	for _, line := range strings.Split(string(all), "\r\n") {
		if strings.HasPrefix(strings.ToLower(line), "sec-websocket-key:") {
			key = strings.TrimSpace(line[len("sec-websocket-key:"):])
		}
	}
	return key
}

func writeUpgrade(nc net.Conn, key string) {
	fmt.Fprintf(nc, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: %s\r\n\r\n",
		wsproto.ComputeAccept(key))
}

// resilienceEnv serves a one-page site whose script opens a socket to
// ws://bad.example/x, with the resolver pointing that host at the
// hostile server.
func resilienceEnv(t *testing.T, mode misbehaviour, expect int) *Browser {
	t.Helper()
	badAddr := hostileWSServer(t, mode)

	prog := &script.Program{Ops: []script.Op{
		{Do: script.OpOpenWebSocket, URL: fmt.Sprintf("ws://bad.example/x?n=%d", expect),
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
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, network, httpAddr)
		},
	}}
	return New(Config{
		Version:       57,
		Seed:          1,
		HTTPClient:    client,
		SocketTimeout: 1 * time.Second,
		ResolveWS: func(hostport string) string {
			if strings.HasPrefix(hostport, "bad.example") {
				return badAddr
			}
			return hostport
		},
	})
}

func visitWithDeadline(t *testing.T, b *Browser) *PageResult {
	t.Helper()
	done := make(chan *PageResult, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := b.Visit(context.Background(), "http://site.example/")
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()
	select {
	case res := <-done:
		return res
	case err := <-errc:
		t.Fatalf("visit failed outright: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("page load hung on misbehaving websocket server")
	}
	return nil
}

func socketEvents(res *PageResult) (created, closed int) {
	for _, ev := range res.Trace.Events {
		switch ev.(type) {
		case devtools.WebSocketCreated:
			created++
		case devtools.WebSocketClosed:
			closed++
		}
	}
	return
}

func TestResilienceGarbageFrames(t *testing.T) {
	b := resilienceEnv(t, behaveGarbageAfterHandshake, 2)
	res := visitWithDeadline(t, b)
	created, closed := socketEvents(res)
	if created != 1 || closed != 1 {
		t.Errorf("socket events: created=%d closed=%d", created, closed)
	}
}

func TestResilienceCloseMidFrame(t *testing.T) {
	b := resilienceEnv(t, behaveCloseMidFrame, 2)
	res := visitWithDeadline(t, b)
	created, closed := socketEvents(res)
	if created != 1 || closed != 1 {
		t.Errorf("socket events: created=%d closed=%d", created, closed)
	}
}

func TestResilienceUnresponsiveServer(t *testing.T) {
	b := resilienceEnv(t, behaveNeverRespond, 1)
	start := time.Now()
	res := visitWithDeadline(t, b)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("timeout took %v, socket timeout is 1s", elapsed)
	}
	if res.NetErrors == 0 {
		t.Error("unresponsive server not counted as a network error")
	}
	// Handshake never completed: created + failed-handshake + closed.
	for _, ev := range res.Trace.Events {
		if h, ok := ev.(devtools.WebSocketHandshakeResponseReceived); ok && h.Status == 101 {
			t.Error("handshake reported success against a silent server")
		}
	}
}

func TestResilienceRejectedHandshake(t *testing.T) {
	b := resilienceEnv(t, behaveRejectHandshake, 1)
	res := visitWithDeadline(t, b)
	if res.NetErrors == 0 {
		t.Error("rejected handshake not counted")
	}
	created, closed := socketEvents(res)
	if created != 1 || closed != 1 {
		t.Errorf("socket events: created=%d closed=%d", created, closed)
	}
}

// TestResilienceHTTPErrors: scripts and images that 500 or vanish must
// not break the page.
func TestResilienceHTTPErrors(t *testing.T) {
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, `<!DOCTYPE html><html><body>
			<script src="/broken.js"></script>
			<img src="/missing.png">
			<h1>still here</h1></body></html>`)
	})
	mux.HandleFunc("/broken.js", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	httpAddr := strings.TrimPrefix(hs.URL, "http://")
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, network, httpAddr)
		},
	}}
	b := New(Config{Version: 57, Seed: 1, HTTPClient: client})
	res, err := b.Visit(context.Background(), "http://site.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Document.GetElementsByTag("h1")) != 1 {
		t.Error("page content lost")
	}
	if hits.Load() != 1 {
		t.Errorf("broken script fetched %d times", hits.Load())
	}
}
