package browser

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"

	"repro/internal/devtools"
	"repro/internal/script"
	"repro/internal/urlutil"
	"repro/internal/webgen"
	"repro/internal/wsproto"
)

// TestUnservedSocketHostStaysOnLoopback: a page that opens a WebSocket
// to a host the synthetic world does not serve — the world lives on
// real domain names, so any such host is somebody's — must not send the
// crawl to real DNS. The dial goes to the world's server like every
// other, is refused 502, and the trace reads the same over TCP and
// in-process: handshake status 0, abnormal closure.
func TestUnservedSocketHostStaysOnLoopback(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	const unserved = "d3adb33f.cloudfront.net"
	if e.world.KnownHost(unserved) {
		t.Fatalf("%s is served by the test world", unserved)
	}
	prog := &script.Program{Ops: []script.Op{{
		Do: script.OpOpenWebSocket, URL: "ws://" + unserved + "/ws?sid=a&n=1",
		Send: []script.MessageSpec{{Kinds: []string{"ua"}}}, Expect: 1,
	}}}
	fetch := func(u *urlutil.URL, _ []byte) (int, string, []byte, error) {
		if u.Path == "/s.js" {
			return 200, "application/javascript", prog.MustEncode(), nil
		}
		return 200, "text/html", []byte(`<html><head><script src="/s.js"></script></head><body></body></html>`), nil
	}

	var dialed []string
	spy := func(ctx context.Context, network, addr string) (net.Conn, error) {
		dialed = append(dialed, addr)
		if addr != e.server.Addr() {
			// Never let a foreign address reach the network.
			return nil, fmt.Errorf("spy: refusing to dial %s", addr)
		}
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
	socketEventsOf := func(dial func(context.Context, string, string) (net.Conn, error)) []devtools.Event {
		b := New(Config{Version: 57, Seed: 3, Fetch: fetch, ResolveWS: e.server.Resolver(), DialWS: dial})
		res, err := b.Visit(context.Background(), "http://hand.example/")
		if err != nil {
			t.Fatal(err)
		}
		if res.NetErrors != 1 {
			t.Errorf("NetErrors = %d, want the one refused socket", res.NetErrors)
		}
		var evs []devtools.Event
		for _, ev := range res.Trace.Events {
			switch ev.(type) {
			case *devtools.WebSocketCreated, *devtools.WebSocketWillSendHandshakeRequest,
				*devtools.WebSocketHandshakeResponseReceived, *devtools.WebSocketFrameSent,
				*devtools.WebSocketFrameReceived, *devtools.WebSocketClosed:
				evs = append(evs, ev)
			}
		}
		return evs
	}

	before := e.server.Stats.NotFound.Load()
	tcp := socketEventsOf(spy)
	mem := socketEventsOf(e.server.DialSocket)

	if len(dialed) != 1 || dialed[0] != e.server.Addr() {
		t.Errorf("dialed %v, want only the world's server at %s", dialed, e.server.Addr())
	}
	if got := e.server.Stats.NotFound.Load() - before; got != 2 {
		t.Errorf("server refused %d dials as unknown virtual host, want 2", got)
	}
	if !reflect.DeepEqual(tcp, mem) {
		t.Errorf("socket events differ between transports\n tcp: %+v\n mem: %+v", tcp, mem)
	}
	if len(tcp) != 4 {
		t.Fatalf("socket events = %+v, want created, handshake request, response, closed", tcp)
	}
	if h, ok := tcp[2].(*devtools.WebSocketHandshakeResponseReceived); !ok || h.Status != 0 {
		t.Errorf("handshake response event = %+v, want status 0", tcp[2])
	}
	if c, ok := tcp[3].(*devtools.WebSocketClosed); !ok || c.Code != wsproto.CloseAbnormal {
		t.Errorf("closed event = %+v, want code %d", tcp[3], wsproto.CloseAbnormal)
	}
}
