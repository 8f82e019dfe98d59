package faultnet

import (
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/detrand"
	"repro/internal/obs"
)

// Conn applies a drawn fault schedule to an underlying net.Conn. All
// randomness was consumed when the schedule was drawn; the methods here
// are pure bookkeeping over byte budgets and pacing, so two conns with
// the same schedule and the same caller behave byte-identically.
//
// Injected sleeps are interruptible: they respect the conn's deadlines
// (mirrored from Set*Deadline) and abort on Close, so a faulted conn
// can always be shut down — a fault profile degrades I/O, it must never
// remove the caller's ability to cancel it.
type Conn struct {
	net.Conn
	sched schedule

	mu       sync.Mutex
	readCut  int64 // remaining read budget; -1 = unlimited
	writeCut int64 // remaining write budget; -1 = unlimited
	stalled  bool  // initial stall already served
	aborted  bool  // reset fired; all I/O fails hard
	readDL   time.Time
	writeDL  time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

// WrapConn applies profile p to nc with a per-connection seed. The
// whole schedule is drawn here, up front; a disabled profile returns nc
// untouched. Callers that need dataset determinism must derive seed
// from a stable logical identity (see DeriveSeed), not from wrap order.
func WrapConn(nc net.Conn, p Profile, seed int64) net.Conn {
	if !p.Enabled() {
		return nc
	}
	return wrapConn(nc, p.schedule(detrand.New(seed)))
}

func wrapConn(nc net.Conn, s schedule) *Conn {
	obs.FaultConns.Inc()
	obs.FaultActive.Add(1)
	return &Conn{
		Conn:    nc,
		sched:   s,
		readCut: s.readCut, writeCut: s.writeCut,
		closed: make(chan struct{}),
	}
}

// wait sleeps for d, capped by deadline dl (zero = none) and aborted by
// Close. Returns os.ErrDeadlineExceeded (a net.Error with Timeout()
// true) when the cap fires, net.ErrClosed when the conn closed.
func (c *Conn) wait(d time.Duration, dl time.Time) error {
	if d <= 0 {
		return nil
	}
	deadlined := false
	if !dl.IsZero() {
		// Deadline arithmetic only: the wall-clock read bounds how long
		// an injected delay may run, it never feeds the fault schedule.
		//lint:allow determinism injected sleeps must respect I/O deadlines
		remain := dl.Sub(time.Now())
		if remain <= 0 {
			return os.ErrDeadlineExceeded
		}
		if d >= remain {
			d, deadlined = remain, true
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		if deadlined {
			return os.ErrDeadlineExceeded
		}
		return nil
	case <-c.closed:
		return net.ErrClosed
	}
}

// preIO serves the one-time initial stall and the per-op latency.
func (c *Conn) preIO(dl time.Time) error {
	c.mu.Lock()
	stall := time.Duration(0)
	if !c.stalled {
		c.stalled = true
		stall = c.sched.stall
	}
	c.mu.Unlock()
	if stall > 0 {
		obs.FaultStalls.Inc()
		if err := c.wait(stall, dl); err != nil {
			return err
		}
	}
	if c.sched.latency > 0 {
		obs.FaultDelays.Inc()
		if err := c.wait(c.sched.latency, dl); err != nil {
			return err
		}
	}
	return nil
}

// pace enforces the bandwidth cap after n transferred bytes. Pacing
// errors (deadline, close) are deliberately dropped: the bytes already
// moved, and the caller must see the true n.
func (c *Conn) pace(n int, dl time.Time) {
	if c.sched.nsPerByte <= 0 || n <= 0 {
		return
	}
	_ = c.wait(time.Duration(int64(n)*c.sched.nsPerByte), dl)
}

// cutErr spends an exhausted budget: a reset hard-closes the transport
// and poisons the conn, a clean cut returns fallback (io.EOF for reads,
// ErrInjectedCut for writes).
func (c *Conn) cutErr(fallback error) error {
	c.mu.Lock()
	reset := c.sched.reset
	if reset {
		c.aborted = true
	}
	c.mu.Unlock()
	if !reset {
		obs.FaultCuts.Inc()
		return fallback
	}
	obs.FaultResets.Inc()
	c.abort()
	return ErrInjectedReset
}

// abort closes the underlying transport RST-style: on TCP, SO_LINGER 0
// makes Close send a reset instead of a FIN.
func (c *Conn) abort() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Conn.Close()
}

func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.aborted {
		c.mu.Unlock()
		return 0, ErrInjectedReset
	}
	dl := c.readDL
	budget := c.readCut
	c.mu.Unlock()

	if err := c.preIO(dl); err != nil {
		return 0, err
	}
	if budget == 0 {
		return 0, c.cutErr(io.EOF)
	}
	if budget > 0 && int64(len(p)) > budget {
		p = p[:budget]
	}
	n, err := c.Conn.Read(p)
	if budget > 0 && n > 0 {
		c.mu.Lock()
		c.readCut -= int64(n)
		c.mu.Unlock()
	}
	c.pace(n, dl)
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.aborted {
		c.mu.Unlock()
		return 0, ErrInjectedReset
	}
	dl := c.writeDL
	budget := c.writeCut
	c.mu.Unlock()

	if err := c.preIO(dl); err != nil {
		return 0, err
	}
	if budget == 0 {
		return 0, c.cutErr(ErrInjectedCut)
	}

	// Work out how much of p the budget admits. A clean cut fails on
	// the boundary without delivering the overflowing write; a short
	// cut delivers the partial prefix first, like a send buffer that
	// drained before the peer vanished.
	allowed := len(p)
	cut := false
	if budget > 0 && int64(len(p)) > budget {
		cut = true
		if c.sched.short {
			allowed = int(budget)
			obs.FaultShortWrites.Inc()
		} else {
			allowed = 0
		}
	}

	n := 0
	if allowed > 0 {
		var err error
		n, err = c.writeChunked(p[:allowed], dl)
		c.mu.Lock()
		if budget > 0 {
			c.writeCut -= int64(n)
		}
		c.mu.Unlock()
		if err != nil {
			return n, err
		}
	}
	if cut {
		c.mu.Lock()
		c.writeCut = 0
		c.mu.Unlock()
		return n, c.cutErr(ErrInjectedCut)
	}
	return n, nil
}

// writeChunked forwards p to the underlying conn, torn into chunks of
// at most tornMax bytes when the schedule asks for it, pacing each
// chunk against the bandwidth cap.
func (c *Conn) writeChunked(p []byte, dl time.Time) (int, error) {
	max := c.sched.tornMax
	if max <= 0 || max >= len(p) {
		n, err := c.Conn.Write(p)
		c.pace(n, dl)
		return n, err
	}
	total := 0
	for len(p) > 0 {
		chunk := max
		if chunk > len(p) {
			chunk = len(p)
		}
		obs.FaultTornWrites.Inc()
		n, err := c.Conn.Write(p[:chunk])
		total += n
		c.pace(n, dl)
		if err != nil {
			return total, err
		}
		if c.sched.latency > 0 {
			if werr := c.wait(c.sched.latency, dl); werr != nil {
				return total, werr
			}
		}
		p = p[n:]
	}
	return total, nil
}

func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		obs.FaultActive.Add(-1)
		err = c.Conn.Close()
	})
	return err
}

// The deadline setters mirror the caller's deadlines locally (so
// injected sleeps can respect them) and forward to the real conn.

func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL, c.writeDL = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDL = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}
