package webserver

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/urlutil"
	"repro/internal/webgen"
	"repro/internal/wsproto"
)

// routing is the part of a counter delta the router decides. Message
// counts are left out: how many of an endpoint's pushes land before the
// client's close does is the transport's timing, not an answer.
func (d statsSnapshot) routing() statsSnapshot {
	d.Sent, d.Recv = 0, 0
	return d
}

// settle waits until every admitted socket has left its endpoint loop,
// so the handshake a client already saw succeed has been counted.
func settle(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		s.mu.Lock()
		active := s.wsActive
		s.mu.Unlock()
		if active == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sockets still served", active)
		}
	}
}

// dialOutcome opens and closes one socket: "101", the refusal's status,
// or "error" when the handshake failed some other way.
func dialOutcome(t *testing.T, s *Server, d *wsproto.Dialer, rawURL string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, _, err := d.Dial(ctx, rawURL)
	if err == nil {
		conn.Close()
		settle(t, s)
		return "101"
	}
	if _, status, ok := strings.Cut(err.Error(), "got "); ok && errors.Is(err, wsproto.ErrBadHandshakeStatus) {
		return status
	}
	return "error"
}

// FuzzTransportsAgree is the differential test of the package's rule
// that how a request is carried never changes its answer: the same HTTP
// request over Client() and through Fetch must get the same status,
// content type and body, the same WebSocket URL dialed over TCP and
// through DialSocket the same handshake outcome, and each pair must move
// the same counters.
func FuzzTransportsAgree(f *testing.F) {
	world := webgen.NewWorld(webgen.Config{Seed: 21, NumPublishers: 5, Era: webgen.EraPrePatch})
	s, err := StartWith(world, Options{EnableEcho: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })

	pub := world.Publishers[0]
	company := pub.Services[0].Domain
	f.Add(pub.Domain, "/page/1", "", false)
	f.Add("cdn."+company, "/w.js", "pub="+pub.Domain+"&pg=1", false)
	f.Add(company, "/pixel.gif", "f=1&r=000042", false)
	f.Add(company, "/track/e", "x=1", true)
	f.Add("intercom.io", "/ws", "sid=a&n=2", false)
	f.Add("nosuch.example", "/x.png", "", false) // 502 on the wire, once an error through Fetch
	f.Add(pub.Domain, "/%70age/1", "", false)    // 200 on the wire, once a 404 through Fetch
	f.Add(pub.Domain, EchoPath, "", false)       // 426 on the wire, once a world lookup through Fetch
	f.Add(pub.Domain, "/__ech%6f", "", false)
	f.Add("www."+pub.Domain, "/", "", true)
	f.Add(strings.ToUpper(pub.Domain), "/", "", false)
	f.Add(pub.Domain+":8080", "//", "", false)
	f.Add(pub.Domain, "/.", "", false)
	f.Add(pub.Domain, "/page%2F1", "a=%2F", false)
	f.Add(pub.Domain, "/%zz", "", false)
	f.Add(pub.Domain, "/a%3Fb", "c d", false)
	f.Add("[::1]", "/", "", false)
	f.Add("[::1]:80", "/ws", "n=1", false)

	wire, fetch := httpTransports[0].do, httpTransports[1].do
	f.Fuzz(func(t *testing.T, host, path, query string, post bool) {
		target := host + path
		if query != "" {
			target += "?" + query
		}
		if _, err := http.NewRequest(http.MethodGet, "http://"+target, nil); err != nil {
			return
		}
		if _, err := urlutil.Parse("http://" + target); err != nil {
			return
		}
		var body []byte
		if post {
			body = []byte("uid=1&ua=fuzz")
		}

		// A 400 over the wire is net/http's own parser refusing what the
		// client wrote (a space in the query, a Host byte it does not
		// allow) before any handler ran: nothing of ours answered it.
		before := snapshot(s)
		viaWire, err := wire(s, "http://"+target, body)
		wireMoved := before.since(s)
		if err == nil && viaWire.Status != http.StatusBadRequest {
			before = snapshot(s)
			viaFetch, err := fetch(s, "http://"+target, body)
			if err != nil {
				t.Fatalf("http://%s: Fetch failed: %v", target, err)
			}
			if viaWire != viaFetch {
				t.Errorf("http://%s: the wire answered %+v, Fetch %+v", target, viaWire, viaFetch)
			}
			if moved := before.since(s); moved != wireMoved {
				t.Errorf("http://%s: the wire moved %+v, Fetch %+v", target, wireMoved, moved)
			}
		}

		before = snapshot(s)
		overTCP := dialOutcome(t, s, transports[0].dialer(s, 1), "ws://"+target)
		tcpMoved := before.since(s).routing()
		if overTCP == "400" {
			return
		}
		before = snapshot(s)
		inProcess := dialOutcome(t, s, transports[1].dialer(s, 1), "ws://"+target)
		if overTCP != inProcess {
			t.Errorf("ws://%s: %s over TCP, %s through DialSocket", target, overTCP, inProcess)
		}
		if moved := before.since(s).routing(); moved != tcpMoved {
			t.Errorf("ws://%s: the TCP dial moved %+v, DialSocket %+v", target, tcpMoved, moved)
		}
	})
}
