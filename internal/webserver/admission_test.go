package webserver

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/wsproto"
)

// echoDialer returns a seeded dialer pointed at the server's real
// address (the echo endpoint is served on every host, so no virtual
// hosting is needed).
func echoDialer(seed int64) wsproto.Dialer {
	return wsproto.Dialer{Rand: rand.New(rand.NewSource(seed))}
}

func TestEchoEndpointWorldless(t *testing.T) {
	s, err := StartWith(nil, Options{EnableEcho: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	d := echoDialer(1)
	conn, _, err := d.Dial(context.Background(), "ws://"+s.Addr()+EchoPath)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for i, tc := range []struct {
		op      wsproto.Opcode
		payload []byte
	}{
		{wsproto.OpText, []byte("hello echo")},
		{wsproto.OpBinary, []byte{0, 1, 2, 0xFF, 0xFE}},
		{wsproto.OpText, bytes.Repeat([]byte("x"), 9000)},
	} {
		if err := conn.WriteMessage(tc.op, tc.payload); err != nil {
			t.Fatalf("msg %d write: %v", i, err)
		}
		op, msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("msg %d read: %v", i, err)
		}
		if op != tc.op || !bytes.Equal(msg, tc.payload) {
			t.Fatalf("msg %d: echoed (%v, %d bytes), want (%v, %d bytes)",
				i, op, len(msg), tc.op, len(tc.payload))
		}
	}
	if got := s.Stats.WSMessagesRecv.Load(); got != 3 {
		t.Errorf("WSMessagesRecv = %d, want 3", got)
	}
	// The server counts an echo after writing it, so the client can read
	// the third echo before the third increment lands.
	for deadline := time.Now().Add(2 * time.Second); s.Stats.WSMessagesSent.Load() < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := s.Stats.WSMessagesSent.Load(); got != 3 {
		t.Errorf("WSMessagesSent = %d, want 3", got)
	}
}

func TestEchoDisabledByDefault(t *testing.T) {
	s, err := StartWith(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := echoDialer(2)
	if _, _, err := d.Dial(context.Background(), "ws://"+s.Addr()+EchoPath); err == nil {
		t.Fatal("echo endpoint served without EnableEcho")
	}
}

func TestMaxConnsShedsUpgrades(t *testing.T) {
	s, err := StartWith(nil, Options{EnableEcho: true, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	url := "ws://" + s.Addr() + EchoPath

	d := echoDialer(3)
	var conns []*wsproto.Conn
	for i := 0; i < 2; i++ {
		conn, _, err := d.Dial(context.Background(), url)
		if err != nil {
			t.Fatalf("conn %d within cap: %v", i, err)
		}
		conns = append(conns, conn)
	}
	// Third connection is over the cap: the upgrade must be refused.
	if conn, _, err := d.Dial(context.Background(), url); err == nil {
		conn.Close()
		t.Fatal("third upgrade admitted past MaxConns=2")
	}
	if got := s.Stats.WSShed.Load(); got != 1 {
		t.Errorf("WSShed = %d, want 1", got)
	}

	// Releasing a slot re-opens admission. The slot frees when the
	// serve loop unwinds, which races the close frame round trip, so
	// poll briefly.
	conns[0].Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, _, err := d.Dial(context.Background(), url)
		if err == nil {
			conns[0] = conn
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, c := range conns {
		c.Close()
	}
}

func TestMaxAcceptedShedsTCP(t *testing.T) {
	s, err := StartWith(nil, Options{EnableEcho: true, MaxAccepted: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	url := "ws://" + s.Addr() + EchoPath

	d := echoDialer(4)
	conn, _, err := d.Dial(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The lone accept slot is held by the live socket: the next TCP
	// connection is closed before HTTP, so the handshake read fails.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if c2, _, err := d.Dial(ctx, url); err == nil {
		c2.Close()
		t.Fatal("second TCP conn admitted past MaxAccepted=1")
	}
	if got := s.Stats.AcceptShed.Load(); got < 1 {
		t.Errorf("AcceptShed = %d, want >= 1", got)
	}

	// The admitted socket must still work after the shed.
	if err := conn.WriteMessage(wsproto.OpText, []byte("still alive")); err != nil {
		t.Fatal(err)
	}
	if _, msg, err := conn.ReadMessage(); err != nil || string(msg) != "still alive" {
		t.Fatalf("echo after shed: %q, %v", msg, err)
	}
}
