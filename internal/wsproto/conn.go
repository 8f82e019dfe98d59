package wsproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
	"unicode/utf8"
)

// CloseError is returned from read operations after the peer closes the
// connection with a close frame.
type CloseError struct {
	Code   int
	Reason string
}

// Error implements error.
func (e *CloseError) Error() string {
	return fmt.Sprintf("wsproto: connection closed: code=%d reason=%q", e.Code, e.Reason)
}

// ErrConnClosed is returned by writes after the connection is closed.
var ErrConnClosed = errors.New("wsproto: use of closed connection")

// DefaultMaxMessageSize bounds the size of an assembled incoming
// message.
const DefaultMaxMessageSize = 1 << 22 // 4 MiB

// Conn is an established WebSocket connection. It is safe for one
// concurrent reader and one concurrent writer; writes are additionally
// serialized internally so control replies never interleave with data.
type Conn struct {
	conn     net.Conn
	br       *bufio.Reader
	isClient bool
	rng      *rand.Rand

	writeMu sync.Mutex
	closed  bool // guarded by writeMu
	// wbuf is the write-path scratch (header + masked/coalesced
	// payload), guarded by writeMu and reused across frames so the
	// steady-state write path performs zero allocations.
	wbuf []byte

	readMu     sync.Mutex
	maxMsgSize int64
	// msgBuf is the read-path scratch messages are assembled into and
	// returned from; guarded by readMu, reused across messages. The
	// slice handed out by ReadMessage aliases it (see the ownership
	// rule on ReadMessage).
	msgBuf []byte
	// ctrl receives control-frame payloads (≤ 125 bytes) so pings
	// interleaved with fragmented messages never touch msgBuf.
	ctrl [maxControlPayload]byte
	// rhdr is the frame-header read scratch.
	rhdr [8]byte

	// fragOpcode/inFrag track an in-progress fragmented message.
	fragOpcode Opcode
	inFrag     bool

	// closeSent records that we already emitted a close frame.
	closeSentMu sync.Mutex
	closeSent   bool // guarded by closeSentMu

	// Subprotocol is the agreed subprotocol ("" if none).
	Subprotocol string
}

func newConn(c net.Conn, br *bufio.Reader, isClient bool, rng *rand.Rand) *Conn {
	if br == nil {
		//lint:allow deadline constructor performs no I/O; Accept/Dial and ReadMessage set deadlines before every read
		br = bufio.NewReader(c)
	}
	if rng == nil {
		// Every constructor must choose its RNG explicitly: a silent
		// time-seeded fallback here once made client masking keys — and
		// therefore recorded frame bytes — nondeterministic. Dialer.Dial
		// refuses a nil Rand before it dials.
		panic("wsproto: newConn requires an explicit rng")
	}
	return &Conn{
		conn:       c,
		br:         br,
		isClient:   isClient,
		rng:        rng,
		maxMsgSize: DefaultMaxMessageSize,
	}
}

// SetDeadline sets read and write deadlines on the underlying connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// SetReadDeadline sets the read deadline on the underlying connection.
// Callers with long-lived sockets refresh it per received message
// instead of holding one absolute whole-conn deadline.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// SetWriteDeadline sets the write deadline on the underlying connection.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }

// WriteMessage sends a complete message of the given data opcode
// (OpText or OpBinary).
func (c *Conn) WriteMessage(op Opcode, payload []byte) error {
	if !op.IsData() || op == OpContinuation {
		return ErrInvalidOpcode
	}
	return c.writeFrame(&Frame{FIN: true, Opcode: op, Payload: payload})
}

// writeFrame encodes and sends one frame. The wire bytes are built in
// the conn's reused write scratch: masking copies into it instead of a
// fresh slice, and header + payload leave in a single Write (write
// coalescing) except for large unmasked payloads, which are written
// directly after the header to skip the copy. Steady-state writes
// perform zero allocations; the bytes produced are identical to the
// tests' reference encoder, naiveWriteFrame (conformance-tested and
// fuzzed).
func (c *Conn) writeFrame(f *Frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrConnClosed
	}
	if c.isClient {
		f.Masked = true
		c.rng.Read(f.MaskKey[:])
	}
	if err := validateFrame(f); err != nil {
		return err
	}
	buf := appendFrameHeader(c.wbuf[:0], f)
	direct := !f.Masked && len(f.Payload) > coalesceLimit
	if f.Masked {
		buf = appendMasked(buf, f.MaskKey, f.Payload)
	} else if !direct {
		buf = append(buf, f.Payload...)
	}
	c.wbuf = buf
	_, err := c.conn.Write(buf)
	if err == nil && direct {
		_, err = c.conn.Write(f.Payload)
	}
	c.wbuf = shrink(c.wbuf)
	if err != nil {
		return fmt.Errorf("wsproto: write frame: %w", err)
	}
	return nil
}

// readHeader reads and validates one frame header: FIN flag, opcode,
// masking bit + key, and the (minimally encoded) payload length. The
// payload itself is left unread for the caller to place.
func (c *Conn) readHeader() (fin bool, op Opcode, plen int64, masked bool, key [4]byte, err error) {
	if _, err = io.ReadFull(c.br, c.rhdr[:2]); err != nil {
		return
	}
	b0, b1 := c.rhdr[0], c.rhdr[1]
	fin = b0&0x80 != 0
	op = Opcode(b0 & 0x0F)
	masked = b1&0x80 != 0
	if b0&0x70 != 0 {
		err = ErrReservedBits
		return
	}
	if !validOpcode(op) {
		err = ErrInvalidOpcode
		return
	}
	plen = int64(b1 & 0x7F)
	switch plen {
	case 126:
		if _, err = io.ReadFull(c.br, c.rhdr[:2]); err != nil {
			return
		}
		plen = int64(binary.BigEndian.Uint16(c.rhdr[:2]))
		if plen < 126 {
			err = ErrBadPayloadLength
			return
		}
	case 127:
		if _, err = io.ReadFull(c.br, c.rhdr[:8]); err != nil {
			return
		}
		v := binary.BigEndian.Uint64(c.rhdr[:8])
		if v&(1<<63) != 0 || v <= 0xFFFF {
			err = ErrBadPayloadLength
			return
		}
		plen = int64(v)
	}
	if op.IsControl() {
		if plen > maxControlPayload {
			err = ErrControlTooLong
			return
		}
		if !fin {
			err = ErrControlFragmented
			return
		}
	}
	if masked {
		if _, err = io.ReadFull(c.br, c.rhdr[:4]); err != nil {
			return
		}
		copy(key[:], c.rhdr[:4])
	}
	return
}

// ReadMessage reads the next complete data message, assembling fragments
// and transparently handling control frames (pings are answered with
// pongs; a close frame completes the closing handshake and surfaces a
// *CloseError).
//
// Buffer ownership: the returned payload aliases a buffer owned by the
// connection and is valid only until the next read or close call on
// this Conn. Callers that retain the bytes past that point must copy
// them first (DESIGN.md §13 documents the rule). This is what makes the
// steady-state read path allocation-free. TestReadMessageBufferOwnership
// pins the aliasing, and core's TestGoldenDigests fails if a caller
// (the browser's socket recorder) retains the slice without copying.
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	// Entering a new read invalidates the previously returned message.
	c.msgBuf = shrink(c.msgBuf)
	c.inFrag = false
	for {
		fin, op, plen, masked, key, err := c.readHeader()
		switch err {
		case nil:
		case ErrReservedBits, ErrInvalidOpcode, ErrBadPayloadLength, ErrControlTooLong, ErrControlFragmented:
			// A header RFC 6455 §5.2 forbids fails the connection.
			c.failConn(CloseProtocolError)
			return 0, nil, err
		default:
			return 0, nil, err
		}
		// Enforce masking direction (RFC 6455 §5.1).
		if c.isClient && masked {
			c.failConn(CloseProtocolError)
			return 0, nil, ErrMaskedServer
		}
		if !c.isClient && !masked {
			c.failConn(CloseProtocolError)
			return 0, nil, ErrUnmaskedClient
		}
		if op.IsControl() {
			// Control payloads land in their own scratch so a ping
			// interleaved with a fragmented message cannot disturb the
			// partially assembled payload in msgBuf.
			p := c.ctrl[:plen]
			if _, err := io.ReadFull(c.br, p); err != nil {
				return 0, nil, err
			}
			if masked {
				maskBytes(key, 0, p)
			}
			if done, err := c.handleControl(op, p); done || err != nil {
				return 0, nil, err
			}
			continue
		}
		if op == OpContinuation {
			if !c.inFrag {
				c.failConn(CloseProtocolError)
				return 0, nil, ErrUnexpectedContinue
			}
		} else if c.inFrag {
			c.failConn(CloseProtocolError)
			return 0, nil, ErrExpectedContinue
		} else {
			c.fragOpcode = op
			c.inFrag = true
		}
		if c.maxMsgSize > 0 && int64(len(c.msgBuf))+plen > c.maxMsgSize {
			c.failConn(CloseMessageTooBig)
			return 0, nil, ErrFrameTooLarge
		}
		if plen > 0 {
			off := len(c.msgBuf)
			c.msgBuf = grow(c.msgBuf, int(plen))[:off+int(plen)]
			seg := c.msgBuf[off:]
			if _, err := io.ReadFull(c.br, seg); err != nil {
				return 0, nil, err
			}
			if masked {
				maskBytes(key, 0, seg)
			}
		}
		if !fin {
			continue
		}
		c.inFrag = false
		msgOp := c.fragOpcode
		if msgOp == OpText && !utf8.Valid(c.msgBuf) {
			c.failConn(CloseInvalidPayload)
			return 0, nil, ErrInvalidUTF8
		}
		return msgOp, c.msgBuf, nil
	}
}

// handleControl processes a control frame. It returns done=true when the
// frame was a close frame (err carries the *CloseError). The payload
// slice aliases the conn's control scratch.
func (c *Conn) handleControl(op Opcode, payload []byte) (done bool, err error) {
	switch op {
	case OpPing:
		// Best-effort pong; a write failure will surface on the next
		// explicit operation. writeFrame copies the payload into the
		// write scratch before the control buffer is reused.
		_ = c.writeFrame(&Frame{FIN: true, Opcode: OpPong, Payload: payload})
		return false, nil
	case OpPong:
		return false, nil
	case OpClose:
		code, reason, perr := parseClosePayload(payload)
		switch perr {
		case nil:
		case ErrInvalidUTF8:
			c.failConn(CloseInvalidPayload)
			return true, perr
		default:
			c.failConn(CloseProtocolError)
			return true, perr
		}
		echo := code
		if echo == CloseNoStatus {
			echo = CloseNormal
		}
		c.sendClose(echo)
		c.shutdown()
		return true, &CloseError{Code: code, Reason: reason}
	}
	return false, ErrInvalidOpcode
}

// Close performs the closing handshake with a normal close code and tears
// down the connection without waiting for the peer's reply.
func (c *Conn) Close() error {
	c.sendClose(CloseNormal)
	return c.shutdown()
}

func (c *Conn) sendClose(code int) {
	c.closeSentMu.Lock()
	sent := c.closeSent
	c.closeSent = true
	c.closeSentMu.Unlock()
	if sent {
		return
	}
	// Bound the close-frame write: a peer that has stopped reading must
	// not be able to wedge teardown.
	//lint:allow determinism I/O deadline arithmetic only; never reaches protocol bytes or the dataset
	_ = c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = c.writeFrame(&Frame{FIN: true, Opcode: OpClose, Payload: closePayload(code, "")})
	_ = c.conn.SetWriteDeadline(time.Time{})
}

// failConn is invoked on protocol violations: it sends a close frame with
// the given code and drops the connection (RFC 6455 §7.1.7 "Fail the
// WebSocket Connection").
func (c *Conn) failConn(code int) {
	c.sendClose(code)
	_ = c.shutdown()
}

func (c *Conn) shutdown() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	// Release the write scratch eagerly; msgBuf stays with the reader,
	// which may still be unwinding from a blocked read.
	c.wbuf = nil
	return c.conn.Close()
}
