package webserver

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memPipeBuffer bounds the bytes one direction of an in-memory
// connection holds unread. A write past it blocks until the reader
// drains — the back-pressure a socket buffer gives. Both ends of a
// crawl socket write before they read (the page sends, the endpoint
// pushes), so the bound must exceed what either side says first; it is
// a ceiling, not a reservation: the buffer grows to what was actually
// in flight.
const memPipeBuffer = 64 << 10

// memAddr is the address of both ends of an in-memory connection.
type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "in-process" }

// memHalf is one direction of an in-memory connection: the bytes one
// end has written and the other has not yet read.
type memHalf struct {
	mu   sync.Mutex
	cond sync.Cond // on mu; broadcast on every change a blocked Read or Write waits for

	buf []byte // guarded by mu; unread bytes are buf[off:]
	off int    // guarded by mu

	readClosed  bool // guarded by mu; the reading end closed: writes fail
	writeClosed bool // guarded by mu; the writing end closed: reads drain, then io.EOF

	readBy, writeBy memDeadline // guarded by mu
}

// memDeadline is one end's read or write deadline on a half. The timer
// only wakes sleepers; whether the deadline has passed is always decided
// against the clock, so a timer that fires late or for a deadline since
// moved is harmless.
type memDeadline struct {
	at    time.Time   // zero: none
	timer *time.Timer // created by the first sleep under a deadline
}

func (d *memDeadline) expired() bool {
	return !d.at.IsZero() && !time.Now().Before(d.at)
}

func newMemHalf() *memHalf {
	h := &memHalf{}
	h.cond.L = &h.mu
	return h
}

// wake rouses every sleeper to look at the half again.
func (h *memHalf) wake() {
	h.mu.Lock()
	h.cond.Broadcast()
	h.mu.Unlock()
}

// sleep blocks until the half changes or d passes. mu is held on entry
// and on return. The timer is stopped on the way out: a pending timer
// would keep the whole connection reachable until it fired.
func (h *memHalf) sleep(d *memDeadline) {
	if d.at.IsZero() {
		h.cond.Wait()
		return
	}
	wait := time.Until(d.at)
	if d.timer == nil {
		d.timer = time.AfterFunc(wait, h.wake)
	} else {
		d.timer.Reset(wait)
	}
	h.cond.Wait()
	d.timer.Stop()
}

// setDeadline moves the half's read (or write) deadline.
func (h *memHalf) setDeadline(read bool, t time.Time) {
	h.mu.Lock()
	if read {
		h.readBy.at = t
	} else {
		h.writeBy.at = t
	}
	h.cond.Broadcast() // sleepers re-arm against the new deadline
	h.mu.Unlock()
}

func (h *memHalf) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		switch {
		case h.readClosed:
			return 0, io.ErrClosedPipe
		case h.readBy.expired():
			return 0, os.ErrDeadlineExceeded
		case h.off < len(h.buf):
			n := copy(p, h.buf[h.off:])
			h.off += n
			if h.off == len(h.buf) {
				h.buf, h.off = h.buf[:0], 0
			}
			h.cond.Broadcast() // room for a blocked writer
			return n, nil
		case h.writeClosed:
			return 0, io.EOF
		}
		h.sleep(&h.readBy)
	}
}

func (h *memHalf) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	written := 0
	for {
		switch {
		case h.writeClosed || h.readClosed:
			return written, io.ErrClosedPipe
		case h.writeBy.expired():
			return written, os.ErrDeadlineExceeded
		case len(p) == 0:
			return written, nil
		}
		if room := memPipeBuffer - (len(h.buf) - h.off); room > 0 {
			n := min(room, len(p))
			if h.off > 0 && len(h.buf)+n > cap(h.buf) {
				// Reclaim the consumed prefix before growing.
				h.buf = h.buf[:copy(h.buf, h.buf[h.off:])]
				h.off = 0
			}
			h.buf = append(h.buf, p[:n]...)
			p = p[n:]
			written += n
			h.cond.Broadcast() // bytes for a blocked reader
			continue
		}
		h.sleep(&h.writeBy)
	}
}

// memConn is one end of an in-memory duplex net.Conn: what
// Server.DialSocket hands the browser in place of a loopback TCP
// connection. It keeps the parts of a socket the protocol code relies
// on — buffered writes that return before the peer reads, back-pressure
// beyond memPipeBuffer, read and write deadlines failing with
// os.ErrDeadlineExceeded, a peer's close delivered as io.EOF once the
// buffered bytes are drained, Close unblocking the end's own blocked
// calls — and drops TCP. net.Pipe is not a substitute: it is
// unbuffered, and both ends of a WebSocket write before they read.
type memConn struct {
	in, out *memHalf
}

// newMemPipe returns the two ends of a fresh in-memory connection.
func newMemPipe() (*memConn, *memConn) {
	a, b := newMemHalf(), newMemHalf()
	return &memConn{in: a, out: b}, &memConn{in: b, out: a}
}

func (c *memConn) Read(p []byte) (int, error)  { return c.in.read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.out.write(p) }

// Close closes both directions of this end. Bytes already written stay
// readable by the peer, which then sees io.EOF; the peer's later writes
// and this end's own reads and writes fail with io.ErrClosedPipe.
func (c *memConn) Close() error {
	c.in.mu.Lock()
	c.in.readClosed = true
	c.in.buf, c.in.off = nil, 0 // nobody is left to read it
	c.in.cond.Broadcast()
	c.in.mu.Unlock()

	c.out.mu.Lock()
	c.out.writeClosed = true
	c.out.cond.Broadcast()
	c.out.mu.Unlock()
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr { return memAddr{} }

func (c *memConn) SetDeadline(t time.Time) error {
	c.in.setDeadline(true, t)
	c.out.setDeadline(false, t)
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.in.setDeadline(true, t)
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.out.setDeadline(false, t)
	return nil
}
