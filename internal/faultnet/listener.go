package faultnet

import (
	"math/rand"
	"net"
	"sync"

	"repro/internal/detrand"
)

// Mode selects how a wrapped listener assigns schedules to accepted
// connections.
type Mode int

const (
	// ModeUniform draws one schedule from the seed and applies it to
	// every accepted conn. Accept order doesn't exist as a variable, so
	// uniform server-side faults keep a concurrent crawl's dataset
	// deterministic — this is the mode the pipeline wires in.
	ModeUniform Mode = iota
	// ModePerConn draws a fresh schedule per accepted conn, in accept
	// order. The schedule *sequence* is seed-reproducible, but its
	// assignment to logical requests is not under concurrency; use it
	// for soak variety, not for byte-identity assertions.
	ModePerConn
)

// Listener injects faults into every connection accepted from an
// underlying net.Listener.
type Listener struct {
	net.Listener
	profile Profile
	mode    Mode

	mu  sync.Mutex
	rng *rand.Rand
	uni schedule // the single ModeUniform schedule
}

// WrapListener applies profile p to every conn accepted from ln. A
// disabled profile returns ln untouched.
func WrapListener(ln net.Listener, p Profile, seed int64, mode Mode) net.Listener {
	if !p.Enabled() {
		return ln
	}
	rng := detrand.New(seed)
	fl := &Listener{Listener: ln, profile: p, mode: mode, rng: rng}
	if mode == ModeUniform {
		fl.uni = serverSchedule(p, rng)
	}
	return fl
}

// serverSchedule draws a schedule for an accepted (server-side) conn.
// Resets degrade to clean cuts on this side: a TCP RST may discard data
// already in flight to the receiver, so the client's observed prefix
// would depend on kernel timing — exactly the nondeterminism the
// contract forbids. The reset draw is still consumed, keeping schedule
// sequences aligned with the client side. Hard RSTs remain available
// through client-side WrapConn, where the local byte budget is exact.
func serverSchedule(p Profile, rng *rand.Rand) schedule {
	s := p.schedule(rng)
	s.reset = false
	return s
}

func (l *Listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	s := l.uni
	if l.mode == ModePerConn {
		s = serverSchedule(l.profile, l.rng)
	}
	l.mu.Unlock()
	return wrapConn(nc, s), nil
}
