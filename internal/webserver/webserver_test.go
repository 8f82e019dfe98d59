package webserver

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/webgen"
	"repro/internal/wsproto"
)

func startTestServer(t *testing.T) *Server {
	t.Helper()
	w := webgen.NewWorld(webgen.Config{Seed: 21, NumPublishers: 50, Era: webgen.EraPrePatch})
	s, err := Start(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, s *Server, url string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Client().Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestServeHomepage(t *testing.T) {
	s := startTestServer(t)
	pub := s.World.Publishers[0]
	resp, body := get(t, s, "http://"+pub.Domain+"/")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Errorf("content type = %q", resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, pub.Domain) {
		t.Error("homepage does not mention its own domain")
	}
	if s.Stats.HTTPRequests.Load() != 1 {
		t.Errorf("request count = %d", s.Stats.HTTPRequests.Load())
	}
}

func TestVirtualHosting(t *testing.T) {
	s := startTestServer(t)
	a := s.World.Publishers[0].Domain
	b := s.World.Publishers[1].Domain
	_, bodyA := get(t, s, "http://"+a+"/")
	_, bodyB := get(t, s, "http://"+b+"/")
	if bodyA == bodyB {
		t.Error("different virtual hosts served identical pages")
	}
	resp, _ := get(t, s, "http://not-in-world.example/")
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unknown host status = %d", resp.StatusCode)
	}
}

func TestServeCompanyScript(t *testing.T) {
	s := startTestServer(t)
	pub := s.World.Publishers[0]
	if len(pub.Services) == 0 {
		t.Skip("publisher has no services")
	}
	// Any company script host works through the resolver.
	c := pub.Services[0]
	resp, body := get(t, s, "http://cdn."+c.Domain+"/w.js?pub="+pub.Domain+"&pg=0")
	if resp.StatusCode != 200 {
		t.Fatalf("script status = %d", resp.StatusCode)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "javascript") {
		t.Errorf("script content type = %q", resp.Header.Get("Content-Type"))
	}
	if body == "" {
		t.Error("empty script body")
	}
}

func TestWebSocketEndToEnd(t *testing.T) {
	s := startTestServer(t)
	d := wsproto.Dialer{ResolveAddr: s.Resolver(), Rand: detrand.New(1)}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	conn, _, err := d.Dial(ctx, "ws://intercom.io/ws?sid=t1&n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := conn.WriteMessage(wsproto.OpText, []byte("ua=Mozilla/5.0 (test)")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if op != wsproto.OpText || len(msg) == 0 {
			t.Errorf("message %d: op=%v len=%d", i, op, len(msg))
		}
	}
	if s.Stats.WSHandshakes.Load() != 1 {
		t.Errorf("handshakes = %d", s.Stats.WSHandshakes.Load())
	}
	// The server counts a message after writing it, so the client can
	// read the second message before the second increment lands.
	for deadline := time.Now().Add(2 * time.Second); s.Stats.WSMessagesSent.Load() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if s.Stats.WSMessagesSent.Load() != 2 {
		t.Errorf("ws messages sent = %d", s.Stats.WSMessagesSent.Load())
	}
}

func TestWebSocketZeroResponses(t *testing.T) {
	s := startTestServer(t)
	d := wsproto.Dialer{ResolveAddr: s.Resolver(), Rand: detrand.New(2)}
	conn, _, err := d.Dial(context.Background(), "ws://intercom.io/ws?sid=t2&n=0")
	if err != nil {
		t.Fatal(err)
	}
	// Client sends, server stays silent, client closes: no deadlock.
	if err := conn.WriteMessage(wsproto.OpText, []byte("cookie=uid=1")); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWebSocketUnknownEndpoint(t *testing.T) {
	s := startTestServer(t)
	d := wsproto.Dialer{ResolveAddr: s.Resolver(), Rand: detrand.New(3)}
	if _, _, err := d.Dial(context.Background(), "ws://intercom.io/not-an-endpoint"); err == nil {
		t.Error("dial to unknown endpoint succeeded")
	}
	if _, _, err := d.Dial(context.Background(), "ws://feed03-rt.net/stream?sid=x&n=1"); err != nil {
		t.Errorf("feed endpoint dial failed: %v", err)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	s := startTestServer(t)
	client := s.Client()
	errc := make(chan error, 20)
	for i := 0; i < 10; i++ {
		go func(i int) {
			pub := s.World.Publishers[i%len(s.World.Publishers)]
			resp, err := client.Get("http://" + pub.Domain + "/")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			errc <- err
		}(i)
		go func(i int) {
			// A conn keeps drawing masking keys from its Dialer's Rand,
			// so concurrent conns each get their own.
			d := wsproto.Dialer{ResolveAddr: s.Resolver(), Rand: detrand.New(int64(i))}
			conn, _, err := d.Dial(context.Background(), "ws://zopim.com/ws?sid=c&n=1")
			if err == nil {
				_, _, rerr := conn.ReadMessage()
				conn.Close()
				err = rerr
			}
			errc <- err
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := <-errc; err != nil {
			t.Errorf("concurrent op %d: %v", i, err)
		}
	}
}

func TestCloseDropsSockets(t *testing.T) {
	s := startTestServer(t)
	d := wsproto.Dialer{ResolveAddr: s.Resolver(), Rand: detrand.New(4)}
	conn, _, err := d.Dial(context.Background(), "ws://pusher.com/ws?sid=z&n=0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := conn.ReadMessage(); err == nil {
		t.Error("socket still alive after server close")
	}
}

func TestHostOnly(t *testing.T) {
	tests := []struct{ in, want string }{
		{"example.com:8080", "example.com"},
		{"example.com", "example.com"},
		{"[::1]:80", "[::1]"},
	}
	for _, tc := range tests {
		if got := hostOnly(tc.in); got != tc.want {
			t.Errorf("hostOnly(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
