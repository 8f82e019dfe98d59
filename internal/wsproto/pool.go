package wsproto

import (
	"bufio"
	"io"
	"sync"
)

// Buffer pooling (DESIGN.md §13). The frame codec's steady-state paths
// must not allocate per message: at the serving scale ROADMAP item 1
// targets, a fresh mask copy per write and a fresh payload slice per
// read turn straight into GC pressure that caps msgs/sec. Two reuse
// mechanisms cover the hot paths:
//
//   - Per-conn scratch buffers (Conn.wbuf, Conn.msgBuf): a Conn already
//     serializes writers under writeMu and readers under readMu, so the
//     scratch needs no pool and no further locking. Buffers grow to the
//     working set and are dropped back to nil after an outsized frame so
//     a single large message cannot pin maxRetainedBuf×conns of memory
//     across a million idle connections.
//   - handshakeWriterPool: the opening handshake needs a *bufio.Writer
//     for exactly the duration of one request or response;
//     Dialer.Dial and Pending.Accept borrow one and return it as soon
//     as the handshake bytes are flushed.
//
// The conn's *bufio.Reader is deliberately NOT pooled: it is owned by
// the read loop for the whole connection lifetime, and teardown can
// race a blocked ReadMessage (Close from another goroutine unblocks it
// with an error after which the reader still touches the buffer).
// Returning it to a pool at shutdown would hand a peer's goroutine a
// buffer another connection is already filling.

// maxRetainedBuf bounds per-conn scratch retention: a buffer grown past
// this by one outsized message is released after use instead of pinned
// for the connection's lifetime.
const maxRetainedBuf = 64 << 10

// coalesceLimit is the largest unmasked payload that is copied into the
// write scratch so header+payload leave in one Write (one syscall, and
// one TCP segment for small frames). Larger unmasked payloads are
// written directly after the header: at that size the extra syscall is
// cheaper than the copy. Masked payloads always go through the scratch
// — masking has to copy anyway.
const coalesceLimit = 8 << 10

// grow returns b with room for n more bytes, reallocating geometrically
// when needed. len(b) is preserved.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	nb := make([]byte, len(b), max(2*cap(b), len(b)+n))
	copy(nb, b)
	return nb
}

// shrink drops an over-grown scratch buffer so one outsized message
// doesn't stay resident for the connection's lifetime.
func shrink(b []byte) []byte {
	if cap(b) > maxRetainedBuf {
		return nil
	}
	return b[:0]
}

// handshakeWriterPool recycles the bufio.Writer used for exactly the
// handshake flush on both the dial and accept paths.
var handshakeWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 1024) }}

func getHandshakeWriter(w io.Writer) *bufio.Writer {
	bw := handshakeWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putHandshakeWriter(bw *bufio.Writer) {
	bw.Reset(io.Discard)
	handshakeWriterPool.Put(bw)
}
