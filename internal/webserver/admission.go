package webserver

import (
	"net"
	"sync"

	"repro/internal/obs"
)

// shedListener enforces the MaxAccepted gate at the TCP layer: a fixed
// pool of accept slots, one held per open connection. When the pool is
// exhausted, freshly accepted connections are closed immediately —
// load-shedding at the cheapest possible point, before the HTTP server
// ever allocates a goroutine or parses a request line. Shed conns are
// counted in ws.accept_shed; clients observe a reset/EOF and should
// treat it as backpressure (see OPERATIONS.md, "Load testing &
// capacity").
type shedListener struct {
	net.Listener
	sem   chan struct{}
	stats *Stats
}

// gateListener wraps ln with an accept gate of maxAccepted slots, or
// returns ln unchanged when the gate is disabled.
func gateListener(ln net.Listener, maxAccepted int, stats *Stats) net.Listener {
	if maxAccepted <= 0 {
		return ln
	}
	return &shedListener{Listener: ln, sem: make(chan struct{}, maxAccepted), stats: stats}
}

func (l *shedListener) Accept() (net.Conn, error) {
	for {
		nc, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		select {
		case l.sem <- struct{}{}:
			obs.WSTCPActive.Add(1)
			return &gatedConn{Conn: nc, l: l}, nil
		default:
			l.stats.AcceptShed.Add(1)
			obs.WSAcceptShed.Inc()
			_ = nc.Close()
		}
	}
}

// gatedConn returns its accept slot exactly once, on first Close. The
// net/http server closes every conn it serves, so slots cannot leak
// while the server runs; Server.Close tears down the listener and the
// remaining conns, draining the pool.
type gatedConn struct {
	net.Conn
	l    *shedListener
	once sync.Once
}

func (c *gatedConn) Close() error {
	c.once.Do(func() {
		<-c.l.sem
		obs.WSTCPActive.Add(-1)
	})
	return c.Conn.Close()
}
