package webserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/detrand"
	"repro/internal/devtools"
	"repro/internal/obs"
	"repro/internal/script"
	"repro/internal/urlutil"
	"repro/internal/webgen"
	"repro/internal/wsproto"
)

// transports are the two ways a client reaches a Server's WebSocket
// endpoints: a TCP dial to the listener and the in-process DialSocket.
// Every test below runs the same client code over both.
var transports = []struct {
	name   string
	dialer func(s *Server, seed int64) *wsproto.Dialer
}{
	{"tcp", func(s *Server, seed int64) *wsproto.Dialer {
		return &wsproto.Dialer{ResolveAddr: s.Resolver(), Rand: detrand.New(seed)}
	}},
	{"inprocess", func(s *Server, seed int64) *wsproto.Dialer {
		return &wsproto.Dialer{ResolveAddr: s.Resolver(), NetDial: s.DialSocket, Rand: detrand.New(seed)}
	}},
}

// statsSnapshot is Stats, and the process-wide webserver.* / ws.conns_shed
// counters beside it, as plain numbers.
type statsSnapshot struct {
	HTTP, Handshakes, Sent, Recv, NotFound, Shed, AcceptShed int64
	ObsRequests, ObsHandshakes, ObsShed                      int64
}

func snapshot(s *Server) statsSnapshot {
	return statsSnapshot{
		s.Stats.HTTPRequests.Load(), s.Stats.WSHandshakes.Load(), s.Stats.WSMessagesSent.Load(),
		s.Stats.WSMessagesRecv.Load(), s.Stats.NotFound.Load(), s.Stats.WSShed.Load(), s.Stats.AcceptShed.Load(),
		obs.ServerRequests.Value(), obs.ServerHandshakes.Value(), obs.WSConnsShed.Value(),
	}
}

// since is what moved between an earlier snapshot and now.
func (before statsSnapshot) since(s *Server) statsSnapshot {
	now := snapshot(s)
	return statsSnapshot{
		now.HTTP - before.HTTP, now.Handshakes - before.Handshakes, now.Sent - before.Sent,
		now.Recv - before.Recv, now.NotFound - before.NotFound, now.Shed - before.Shed,
		now.AcceptShed - before.AcceptShed,
		now.ObsRequests - before.ObsRequests, now.ObsHandshakes - before.ObsHandshakes, now.ObsShed - before.ObsShed,
	}
}

// waitFor polls cond until it holds, failing the test after five
// seconds: for counters a server moves after the client has its answer.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// httpAnswer is everything a client observes of one HTTP exchange.
type httpAnswer struct {
	Status      int
	ContentType string
	Body        string
}

// httpTransports are the two ways a client's HTTP request reaches a
// Server: over the wire through Client() and in-process through Fetch.
var httpTransports = []struct {
	name string
	do   func(s *Server, rawURL string, post []byte) (httpAnswer, error)
}{
	{"wire", func(s *Server, rawURL string, post []byte) (httpAnswer, error) {
		method, body := http.MethodGet, io.Reader(nil)
		if post != nil {
			method, body = http.MethodPost, bytes.NewReader(post)
		}
		req, err := http.NewRequest(method, rawURL, body)
		if err != nil {
			return httpAnswer{}, err
		}
		client := s.Client()
		defer client.CloseIdleConnections()
		resp, err := client.Do(req)
		if err != nil {
			return httpAnswer{}, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return httpAnswer{resp.StatusCode, resp.Header.Get("Content-Type"), string(b)}, err
	}},
	{"fetch", func(s *Server, rawURL string, post []byte) (httpAnswer, error) {
		u, err := urlutil.Parse(rawURL)
		if err != nil {
			return httpAnswer{}, err
		}
		status, ctype, b, err := s.Fetch(u, post)
		return httpAnswer{status, ctype, string(b)}, err
	}},
}

// TestNoDialLeavesLoopback is the regression test for the crawl that
// could dial the real internet: the synthetic web lives on real domain
// names (doubleclick.net, cloudfront.net hosts …), and the resolver used
// to hand any host the world does not serve back unchanged — straight
// to net.Dial and real DNS. Every host must resolve to the server,
// which answers 502 on either transport.
func TestNoDialLeavesLoopback(t *testing.T) {
	s := startTestServer(t)
	for _, host := range []string{"x.cloudfront.net", "not-in-world.example"} {
		if s.World.KnownHost(host) {
			t.Fatalf("%s is served by the test world; pick another", host)
		}
		var dialed []string
		d := wsproto.Dialer{
			ResolveAddr: s.Resolver(),
			Rand:        detrand.New(1),
			// The spy never lets a foreign address reach the network.
			NetDial: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dialed = append(dialed, addr)
				if addr != s.Addr() {
					return nil, fmt.Errorf("spy: refusing to dial %s", addr)
				}
				var nd net.Dialer
				return nd.DialContext(ctx, network, addr)
			},
		}
		before := snapshot(s)
		_, _, err := d.Dial(context.Background(), "ws://"+host+"/ws?sid=a&n=1")
		if len(dialed) != 1 || dialed[0] != s.Addr() {
			t.Errorf("%s: dialed %v, want only the server at %s", host, dialed, s.Addr())
		}
		if !errors.Is(err, wsproto.ErrBadHandshakeStatus) || !strings.Contains(err.Error(), "502") {
			t.Errorf("%s over tcp: %v, want a 502 handshake status", host, err)
		}
		d.NetDial = s.DialSocket
		_, _, err = d.Dial(context.Background(), "ws://"+host+"/ws?sid=a&n=1")
		if !errors.Is(err, wsproto.ErrBadHandshakeStatus) || !strings.Contains(err.Error(), "502") {
			t.Errorf("%s in-process: %v, want a 502 handshake status", host, err)
		}
		after := snapshot(s)
		if got := after.NotFound - before.NotFound; got != 2 {
			t.Errorf("%s: NotFound moved by %d over two refused dials", host, got)
		}
	}
}

// TestTransportErrorsMirror holds the in-process transports to the wire
// case by case: the same handshake status (sockets) or status, content
// type and body (HTTP) reaches the client and the same counters move.
func TestTransportErrorsMirror(t *testing.T) {
	world := webgen.NewWorld(webgen.Config{Seed: 21, NumPublishers: 50, Era: webgen.EraPrePatch})
	cases := []struct {
		name   string
		opts   Options
		url    string
		status string        // in the client's error; "" when the dial itself fails
		delta  statsSnapshot // what one refused dial moves
		before func(*Server) // runs once per server, before the dial
	}{
		{name: "unknown host", url: "ws://not-in-world.example/ws?sid=a&n=1", status: "502", delta: statsSnapshot{NotFound: 1}},
		{name: "unknown path", url: "ws://intercom.io/not-an-endpoint", status: "404", delta: statsSnapshot{NotFound: 1}},
		{name: "no free slot", opts: Options{MaxConns: 1}, url: "ws://intercom.io/ws?sid=a&n=0", status: "503",
			delta: statsSnapshot{Shed: 1, ObsShed: 1},
			before: func(s *Server) {
				// Hold the only slot for the server's lifetime.
				obsBefore := obs.ServerHandshakes.Value()
				d := wsproto.Dialer{ResolveAddr: s.Resolver(), Rand: detrand.New(9)}
				conn, _, err := d.Dial(context.Background(), "ws://intercom.io/ws?sid=hold&n=0")
				if err != nil {
					t.Fatalf("holding the slot: %v", err)
				}
				t.Cleanup(func() { conn.Close() })
				// The server counts a handshake after writing the 101 the
				// dial returned on, so wait for the holder's count: landing
				// later, it would move this row's counters or a later row's.
				waitFor(t, "the slot holder's handshake count", func() bool {
					return s.Stats.WSHandshakes.Load() == 1 && obs.ServerHandshakes.Value() > obsBefore
				})
			}},
		{name: "server closed", url: "ws://intercom.io/ws?sid=a&n=0",
			before: func(s *Server) { s.Close() }},
	}
	for _, tc := range cases {
		for _, tr := range transports {
			t.Run(tc.name+"/"+tr.name, func(t *testing.T) {
				s, err := StartWith(world, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				if tc.before != nil {
					tc.before(s)
				}
				before := snapshot(s)
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				conn, _, err := tr.dialer(s, 1).Dial(ctx, tc.url)
				if err == nil {
					conn.Close()
					t.Fatal("dial succeeded")
				}
				if tc.status == "" {
					if errors.Is(err, wsproto.ErrBadHandshakeStatus) {
						t.Errorf("got %v, want a failed dial, not a handshake status", err)
					}
				} else if !errors.Is(err, wsproto.ErrBadHandshakeStatus) || !strings.Contains(err.Error(), "got "+tc.status) {
					t.Errorf("got %v, want handshake status %s", err, tc.status)
				}
				if got := before.since(s); got != tc.delta {
					t.Errorf("counters moved by %+v, want %+v", got, tc.delta)
				}
			})
		}
	}

	// The HTTP rows: one request over the wire and through Fetch, each on
	// a fresh server, must be answered the same and count the same.
	pub := world.Publishers[0]
	script := "http://cdn." + pub.Services[0].Domain + "/w.js?pub=" + pub.Domain + "&pg=1"
	httpCases := []struct {
		name    string
		opts    Options
		noWorld bool
		url     string
		post    []byte
		want    httpAnswer    // Body "" is not compared
		delta   statsSnapshot // what the one request moves
	}{
		{name: "unknown host", url: "http://nosuch.example/x.png",
			want:  httpAnswer{502, "text/plain; charset=utf-8", "unknown virtual host\n"},
			delta: statsSnapshot{NotFound: 1}},
		{name: "known host, unknown path", url: "http://" + pub.Domain + "/nope",
			want:  httpAnswer{404, "text/plain", "not found"},
			delta: statsSnapshot{HTTP: 1, ObsRequests: 1}},
		{name: "known host the world has no resource for", url: "http://www." + pub.Domain + "/",
			want:  httpAnswer{404, "text/plain; charset=utf-8", "no such resource\n"},
			delta: statsSnapshot{HTTP: 1, ObsRequests: 1, NotFound: 1}},
		{name: "escaped path decoding to a hit", url: "http://" + pub.Domain + "/%70age/1",
			want:  httpAnswer{Status: 200, ContentType: "text/html; charset=utf-8"},
			delta: statsSnapshot{HTTP: 1, ObsRequests: 1}},
		{name: "escaped path decoding to a miss", url: "http://www." + pub.Domain + "/%70age/1",
			want:  httpAnswer{404, "text/plain; charset=utf-8", "no such resource\n"},
			delta: statsSnapshot{HTTP: 1, ObsRequests: 1, NotFound: 1}},
		{name: "upper-case host", url: "http://" + strings.ToUpper(pub.Domain) + "/",
			want:  httpAnswer{Status: 200, ContentType: "text/html; charset=utf-8"},
			delta: statsSnapshot{HTTP: 1, ObsRequests: 1}},
		{name: "POST with a body", url: "http://" + pub.Services[0].Domain + "/track/e?x=1", post: []byte("uid=1&ua=test"),
			want:  httpAnswer{Status: 204, ContentType: "text/plain"},
			delta: statsSnapshot{HTTP: 1, ObsRequests: 1}},
		{name: "query string preserved", url: script,
			want:  httpAnswer{Status: 200, ContentType: "application/javascript"},
			delta: statsSnapshot{HTTP: 1, ObsRequests: 1}},
		{name: "echo path without an upgrade", opts: Options{EnableEcho: true}, url: "http://" + pub.Domain + EchoPath,
			want: httpAnswer{426, "text/plain; charset=utf-8", "websocket upgrade required\n"}},
		{name: "echo path without an upgrade, no world", opts: Options{EnableEcho: true}, noWorld: true, url: "http://anything.example" + EchoPath,
			want: httpAnswer{426, "text/plain; charset=utf-8", "websocket upgrade required\n"}},
		{name: "echo path with echo off", url: "http://" + pub.Domain + EchoPath,
			want:  httpAnswer{404, "text/plain", "not found"},
			delta: statsSnapshot{HTTP: 1, ObsRequests: 1}},
	}
	for _, tc := range httpCases {
		var answers [2]httpAnswer
		for i, tr := range httpTransports {
			t.Run("http/"+tc.name+"/"+tr.name, func(t *testing.T) {
				w := world
				if tc.noWorld {
					w = nil
				}
				s, err := StartWith(w, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				before := snapshot(s)
				got, err := tr.do(s, tc.url, tc.post)
				if err != nil {
					t.Fatalf("%s: %v", tc.url, err)
				}
				answers[i] = got
				if tc.want.Body == "" {
					got.Body = ""
				}
				if got != tc.want {
					t.Errorf("answered %+v, want %+v", got, tc.want)
				}
				if got := before.since(s); got != tc.delta {
					t.Errorf("counters moved by %+v, want %+v", got, tc.delta)
				}
			})
		}
		if answers[0] != answers[1] {
			t.Errorf("http/%s: the wire answered %+v, Fetch %+v", tc.name, answers[0], answers[1])
		}
	}
	// The query reached the world: without it w.js is the no-op script.
	bare, _ := httpTransports[1].do(startTestServer(t), strings.SplitN(script, "?", 2)[0], nil)
	for _, tr := range httpTransports {
		if full, _ := tr.do(startTestServer(t), script, nil); full.Body == bare.Body {
			t.Errorf("%s: %s served without its query", tr.name, script)
		}
	}
}

// TestUnknownHostVisitMirrors is the browser's view of the same rule: a
// page on a host the world does not serve loads to the same trace, event
// for event, and the same NetErrors over the wire and in-process.
func TestUnknownHostVisitMirrors(t *testing.T) {
	s := startTestServer(t)
	var traces [2]string
	var netErrors [2]int
	for i, cfg := range []browser.Config{
		{Version: 57, Seed: 1, HTTPClient: s.Client(), ResolveWS: s.Resolver()},
		{Version: 57, Seed: 1, Fetch: s.Fetch, ResolveWS: s.Resolver(), DialWS: s.DialSocket},
	} {
		res, err := browser.New(cfg).Visit(context.Background(), "http://nosuch.example/")
		if err == nil {
			t.Fatal("a page on an unknown host loaded")
		}
		events, err := json.Marshal(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		traces[i], netErrors[i] = string(events), res.NetErrors
	}
	if traces[0] != traces[1] || netErrors[0] != netErrors[1] {
		t.Errorf("wire: %d net errors, trace %s\nin-process: %d net errors, trace %s", netErrors[0], traces[0], netErrors[1], traces[1])
	}
	if !strings.Contains(traces[0], `"status":502`) {
		t.Errorf("no 502 response event in %s", traces[0])
	}
}

// TestCloseLeavesNoGoroutines opens sockets over both transports, leaves
// them open and closes the server: every serving goroutine must unwind.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			world := webgen.NewWorld(webgen.Config{Seed: 21, NumPublishers: 50, Era: webgen.EraPrePatch})
			s, err := Start(world)
			if err != nil {
				t.Fatal(err)
			}
			d := tr.dialer(s, 5)
			var conns []*wsproto.Conn
			for i := 0; i < 8; i++ {
				conn, _, err := d.Dial(context.Background(), "ws://pusher.com/ws?sid=z&n=0")
				if err != nil {
					t.Fatal(err)
				}
				conns = append(conns, conn)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for _, conn := range conns {
				_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				if _, _, err := conn.ReadMessage(); err == nil {
					t.Error("socket still alive after server close")
				}
				conn.Close()
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before, %d after Close:\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}

// wedgedPage is a browser whose one page opens one socket through
// dial, expecting a message back.
func wedgedPage(timeout time.Duration, dial func(context.Context, string, string) (net.Conn, error)) *browser.Browser {
	prog := &script.Program{Ops: []script.Op{{
		Do: script.OpOpenWebSocket, URL: "ws://wedged.example/x?n=1",
		Send: []script.MessageSpec{{Kinds: []string{"ua"}}}, Expect: 1,
	}}}
	return browser.New(browser.Config{
		Version:       57,
		Seed:          1,
		SocketTimeout: timeout,
		DialWS:        dial,
		Fetch: func(u *urlutil.URL, _ []byte) (int, string, []byte, error) {
			if u.Path == "/s.js" {
				return 200, "application/javascript", prog.MustEncode(), nil
			}
			return 200, "text/html", []byte(`<html><head><script src="/s.js"></script></head><body></body></html>`), nil
		},
	})
}

// TestSocketTimeoutBoundsWedgedInProcessPeer: the in-memory conn has to
// honour the deadlines the browser sets, or a peer that stops talking
// would hang a page where a TCP peer cannot. One peer never answers the
// handshake, the other upgrades and then goes silent.
func TestSocketTimeoutBoundsWedgedInProcessPeer(t *testing.T) {
	const timeout = 300 * time.Millisecond
	var mu sync.Mutex
	var held []net.Conn // the peers' ends, kept open so only a deadline can end the wait
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	hold := func(c net.Conn) {
		mu.Lock()
		held = append(held, c)
		mu.Unlock()
	}
	cases := []struct {
		name       string
		serve      func(peer net.Conn)
		wantStatus int
	}{
		{"silent from the start", func(net.Conn) {}, 0},
		{"silent after the upgrade", func(peer net.Conn) {
			if p, err := wsproto.ReadRequest(peer); err == nil {
				_, _ = p.Accept("")
			}
		}, 101},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := wedgedPage(timeout, func(context.Context, string, string) (net.Conn, error) {
				client, peer := newMemPipe()
				hold(peer)
				go tc.serve(peer)
				return client, nil
			})
			start := time.Now()
			res, err := b.Visit(context.Background(), "http://site.example/")
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed < timeout || elapsed > timeout+2*time.Second {
				t.Errorf("page took %v against a wedged peer; socket timeout is %v", elapsed, timeout)
			}
			status, closed := -1, false
			for _, ev := range res.Trace.Events {
				switch ev := ev.(type) {
				case *devtools.WebSocketHandshakeResponseReceived:
					status = ev.Status
				case *devtools.WebSocketClosed:
					closed = true
				}
			}
			if status != tc.wantStatus || !closed {
				t.Errorf("handshake status %d (want %d), closed event %v", status, tc.wantStatus, closed)
			}
		})
	}
}

// BenchmarkSocket is the stopwatch around one crawl-shaped socket —
// dial, handshake, one message up, two down, close — over each
// transport, from GOMAXPROCS goroutines at once (run with -cpu 2 for
// two crawl workers). µs/socket is the mean time one socket took its
// caller, which is what a page pays; ns/op is wall time per socket
// across all callers.
func BenchmarkSocket(b *testing.B) {
	world := webgen.NewWorld(webgen.Config{Seed: 21, NumPublishers: 50, Era: webgen.EraPrePatch})
	msg := []byte("ua=Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36")
	for _, tr := range transports {
		b.Run(tr.name, func(b *testing.B) {
			s, err := Start(world)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var seed, busy atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				d := tr.dialer(s, seed.Add(1))
				var spent time.Duration
				for pb.Next() {
					start := time.Now()
					conn, _, err := d.Dial(context.Background(), "ws://intercom.io/ws?sid=bench&n=2")
					if err != nil {
						b.Error(err)
						return
					}
					if err := conn.WriteMessage(wsproto.OpText, msg); err != nil {
						b.Error(err)
						return
					}
					for i := 0; i < 2; i++ {
						if _, _, err := conn.ReadMessage(); err != nil {
							b.Error(err)
							return
						}
					}
					conn.Close()
					spent += time.Since(start)
				}
				busy.Add(int64(spent))
			})
			b.ReportMetric(float64(busy.Load())/float64(b.N)/1e3, "µs/socket")
		})
	}
}
