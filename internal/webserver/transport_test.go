package webserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/detrand"
	"repro/internal/devtools"
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

// statsSnapshot is Stats as plain numbers.
type statsSnapshot struct {
	HTTP, Handshakes, Sent, Recv, NotFound, Shed, AcceptShed int64
}

func snapshot(s *Server) statsSnapshot {
	return statsSnapshot{
		s.Stats.HTTPRequests.Load(), s.Stats.WSHandshakes.Load(), s.Stats.WSMessagesSent.Load(),
		s.Stats.WSMessagesRecv.Load(), s.Stats.NotFound.Load(), s.Stats.WSShed.Load(), s.Stats.AcceptShed.Load(),
	}
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

// TestTransportErrorsMirror holds DialSocket's refusals to the wire
// handler's: the same handshake status reaches the client and the same
// counters move, case by case.
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
			delta: statsSnapshot{Shed: 1},
			before: func(s *Server) {
				// Hold the only slot for the server's lifetime.
				d := wsproto.Dialer{ResolveAddr: s.Resolver(), Rand: detrand.New(9)}
				conn, _, err := d.Dial(context.Background(), "ws://intercom.io/ws?sid=hold&n=0")
				if err != nil {
					t.Fatalf("holding the slot: %v", err)
				}
				t.Cleanup(func() { conn.Close() })
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
				after := snapshot(s)
				got := statsSnapshot{
					after.HTTP - before.HTTP, after.Handshakes - before.Handshakes, after.Sent - before.Sent,
					after.Recv - before.Recv, after.NotFound - before.NotFound, after.Shed - before.Shed,
					after.AcceptShed - before.AcceptShed,
				}
				if got != tc.delta {
					t.Errorf("counters moved by %+v, want %+v", got, tc.delta)
				}
			})
		}
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
				case devtools.WebSocketHandshakeResponseReceived:
					status = ev.Status
				case devtools.WebSocketClosed:
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
