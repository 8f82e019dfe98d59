package faultnet

import (
	"math/rand"
	"net"
	"sync"

	"repro/internal/detrand"
)

// Listener injects faults into every connection accepted from an
// underlying net.Listener.
type Listener struct {
	net.Listener
	profile Profile

	mu  sync.Mutex
	rng *rand.Rand
}

// WrapListener applies profile p to every conn accepted from ln: each
// accepted conn gets a schedule of its own, drawn from seed in accept
// order. The schedule sequence is seed-reproducible, but under
// concurrent clients its assignment to logical requests is not, so a
// wrapped listener is for soak variety (the fabric coordinator's link
// faults), never for byte-identity assertions. A disabled profile
// returns ln untouched.
func WrapListener(ln net.Listener, p Profile, seed int64) net.Listener {
	if !p.Enabled() {
		return ln
	}
	return &Listener{Listener: ln, profile: p, rng: detrand.New(seed)}
}

func (l *Listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	s := l.profile.schedule(l.rng)
	l.mu.Unlock()
	// Resets degrade to clean cuts on this side: a TCP RST may discard
	// data already in flight to the receiver, so the client's observed
	// prefix would depend on kernel timing. Hard RSTs remain available
	// through client-side WrapConn, where the local byte budget is exact.
	s.reset = false
	return wrapConn(nc, s), nil
}
