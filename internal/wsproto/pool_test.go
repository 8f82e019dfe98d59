package wsproto

// Conformance and allocation tests for the pooled codec (DESIGN.md
// §13). The seed's per-frame allocating encoder is retained below as
// naiveWriteFrame, the reference oracle: every pooled path must put
// byte-identical frames on the wire, and the steady-state echo path
// must not allocate at all.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// naiveWriteFrame is the seed's frame encoder, kept verbatim as the
// bytes-on-the-wire oracle: header into a fresh array, mask copy into a
// fresh slice, two writes.
func naiveWriteFrame(w io.Writer, f *Frame) error {
	if err := validateFrame(f); err != nil {
		return err
	}
	var hdr [14]byte
	n := 0
	b0 := byte(f.Opcode)
	if f.FIN {
		b0 |= 0x80
	}
	hdr[0] = b0
	n = 2
	plen := len(f.Payload)
	switch {
	case plen <= 125:
		hdr[1] = byte(plen)
	case plen <= 0xFFFF:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:4], uint16(plen))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:10], uint64(plen))
		n = 10
	}
	if f.Masked {
		hdr[1] |= 0x80
		copy(hdr[n:n+4], f.MaskKey[:])
		n += 4
	}
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	payload := f.Payload
	if f.Masked && plen > 0 {
		masked := make([]byte, plen)
		copy(masked, payload)
		maskBytes(f.MaskKey, 0, masked)
		payload = masked
	}
	if plen > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// fakeAddr satisfies net.Addr for the in-memory conns below.
type fakeAddr string

func (a fakeAddr) Network() string { return "mem" }
func (a fakeAddr) String() string  { return string(a) }

// memConn is a one-directional in-memory net.Conn: writes append to
// out, reads drain in. Deadlines are no-ops. It lets codec tests run
// sequentially on one goroutine with no pipes and no syscalls.
type memConn struct {
	in  *bytes.Buffer
	out *bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error)         { return c.in.Read(p) }
func (c *memConn) Write(p []byte) (int, error)        { return c.out.Write(p) }
func (c *memConn) Close() error                       { return nil }
func (c *memConn) LocalAddr() net.Addr                { return fakeAddr("local") }
func (c *memConn) RemoteAddr() net.Addr               { return fakeAddr("remote") }
func (c *memConn) SetDeadline(t time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(t time.Time) error { return nil }

// memPair builds a connected client/server conn pair over two in-memory
// buffers. Writes must be drained by the peer before the next write of
// the same direction is strictly required to happen, which sequential
// tests and benchmarks guarantee by construction.
func memPair(clientSeed, serverSeed int64) (client, server *Conn, c2s, s2c *bytes.Buffer) {
	c2s = &bytes.Buffer{}
	s2c = &bytes.Buffer{}
	client = newConn(&memConn{in: s2c, out: c2s}, nil, true, rand.New(rand.NewSource(clientSeed)))
	server = newConn(&memConn{in: c2s, out: s2c}, nil, false, rand.New(rand.NewSource(serverSeed)))
	return client, server, c2s, s2c
}

// wireConn builds a conn on one side of a connection whose peer sent
// in; what it writes back is discarded.
func wireConn(in []byte, isClient bool) *Conn {
	return newConn(&discardConn{memConn{in: bytes.NewBuffer(in)}}, nil, isClient, rand.New(rand.NewSource(1)))
}

// readFrame reads one frame off c through the conn's own header parser,
// readHeader, and unmasks its payload: the single-frame view a codec
// case needs, where ReadMessage assembles messages and answers control
// frames.
func readFrame(c *Conn) (*Frame, error) {
	fin, op, plen, masked, key, err := c.readHeader()
	if err != nil {
		return nil, err
	}
	f := &Frame{FIN: fin, Opcode: op, Masked: masked, MaskKey: key}
	if plen > 0 {
		f.Payload = make([]byte, plen)
		if _, err := io.ReadFull(c.br, f.Payload); err != nil {
			return nil, err
		}
		if masked {
			maskBytes(key, 0, f.Payload)
		}
	}
	return f, nil
}

// conformanceSizes are the payload sizes the pooled codec must prove
// byte-equivalence at: the RFC length-encoding boundaries (125/126,
// 65535/65536), the conn's bufio size (4096), the write-coalescing
// threshold (coalesceLimit), and the scratch retention bound
// (maxRetainedBuf) — each exercised one byte either side.
var conformanceSizes = []int{
	0, 1, 2, 125, 126, 127,
	4095, 4096, 4097,
	coalesceLimit - 1, coalesceLimit, coalesceLimit + 1,
	65535, 65536, 65537,
	maxRetainedBuf - 1, maxRetainedBuf, maxRetainedBuf + 1,
}

func fillPattern(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*7 + salt
	}
	return p
}

// TestPooledClientBytesMatchReference drives the pooled client write
// path and the seed's naive encoder from identically seeded RNGs and
// requires the exact same bytes on the wire, across every boundary
// size. Masking keys are drawn per frame, so equality here proves both
// the header encoding and the pooled mask copy.
func TestPooledClientBytesMatchReference(t *testing.T) {
	const seed = 99
	client, _, c2s, _ := memPair(seed, 1)
	refRng := rand.New(rand.NewSource(seed))
	var ref bytes.Buffer
	for _, n := range conformanceSizes {
		if err := client.WriteMessage(OpBinary, fillPattern(n, byte(n))); err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		f := &Frame{FIN: true, Opcode: OpBinary, Payload: fillPattern(n, byte(n)), Masked: true}
		refRng.Read(f.MaskKey[:])
		if err := naiveWriteFrame(&ref, f); err != nil {
			t.Fatalf("reference size %d: %v", n, err)
		}
		if !bytes.Equal(c2s.Bytes(), ref.Bytes()) {
			t.Fatalf("size %d: pooled client bytes diverge from reference (%d vs %d bytes)",
				n, c2s.Len(), ref.Len())
		}
	}
}

// TestPooledServerBytesMatchReference does the same for the unmasked
// server direction, which additionally crosses the write-coalescing
// threshold into the direct-write path.
func TestPooledServerBytesMatchReference(t *testing.T) {
	_, server, _, s2c := memPair(1, 2)
	var ref bytes.Buffer
	for _, n := range conformanceSizes {
		if err := server.WriteMessage(OpBinary, fillPattern(n, byte(n+3))); err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		f := &Frame{FIN: true, Opcode: OpBinary, Payload: fillPattern(n, byte(n+3))}
		if err := naiveWriteFrame(&ref, f); err != nil {
			t.Fatalf("reference size %d: %v", n, err)
		}
		if !bytes.Equal(s2c.Bytes(), ref.Bytes()) {
			t.Fatalf("size %d: pooled server bytes diverge from reference", n)
		}
	}
}

// TestPooledRoundTripBoundarySizes echoes every boundary size through
// both pooled codecs (client → server → client) and checks payload
// integrity end to end.
func TestPooledRoundTripBoundarySizes(t *testing.T) {
	client, server, _, _ := memPair(11, 12)
	for _, n := range conformanceSizes {
		want := fillPattern(n, byte(n*3))
		if err := client.WriteMessage(OpBinary, want); err != nil {
			t.Fatalf("size %d client write: %v", n, err)
		}
		op, msg, err := server.ReadMessage()
		if err != nil {
			t.Fatalf("size %d server read: %v", n, err)
		}
		if op != OpBinary || !bytes.Equal(msg, want) {
			t.Fatalf("size %d: server got %d bytes, want %d", n, len(msg), n)
		}
		if err := server.WriteMessage(op, msg); err != nil {
			t.Fatalf("size %d server write: %v", n, err)
		}
		op, msg, err = client.ReadMessage()
		if err != nil {
			t.Fatalf("size %d client read: %v", n, err)
		}
		if op != OpBinary || !bytes.Equal(msg, want) {
			t.Fatalf("size %d: client got %d bytes back, want %d", n, len(msg), n)
		}
	}
}

// TestZeroLengthMaskedFrames: a zero-length masked frame still carries
// a 4-byte key on the wire and must decode to an empty (non-error)
// message in both text and binary flavours.
func TestZeroLengthMaskedFrames(t *testing.T) {
	client, server, c2s, _ := memPair(21, 22)
	for _, op := range []Opcode{OpText, OpBinary} {
		if err := client.WriteMessage(op, nil); err != nil {
			t.Fatal(err)
		}
		// Masked bit + zero length + key on the wire: 2 header + 4 key.
		if got := c2s.Len(); got != 6 {
			t.Fatalf("zero-length masked frame is %d wire bytes, want 6", got)
		}
		gotOp, msg, err := server.ReadMessage()
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if gotOp != op || len(msg) != 0 {
			t.Errorf("%v: got (%v, %d bytes)", op, gotOp, len(msg))
		}
	}
}

// TestInterleavedControlDuringFragmentedRead interleaves pings between
// the fragments of one message: the control scratch must keep ping
// payloads out of the partially assembled message buffer, the auto-pong
// must echo each ping, and the assembled message must be intact.
func TestInterleavedControlDuringFragmentedRead(t *testing.T) {
	client, server, _, s2c := memPair(31, 32)
	part1 := fillPattern(1000, 1)
	part2 := fillPattern(1000, 2)
	part3 := fillPattern(1000, 3)

	mustWrite := func(f *Frame) {
		t.Helper()
		if err := client.writeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(&Frame{FIN: false, Opcode: OpBinary, Payload: part1})
	mustWrite(&Frame{FIN: true, Opcode: OpPing, Payload: []byte("ping-one")})
	mustWrite(&Frame{FIN: false, Opcode: OpContinuation, Payload: part2})
	mustWrite(&Frame{FIN: true, Opcode: OpPing, Payload: []byte("ping-two")})
	mustWrite(&Frame{FIN: true, Opcode: OpContinuation, Payload: part3})

	op, msg, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(append([]byte(nil), part1...), part2...), part3...)
	if op != OpBinary || !bytes.Equal(msg, want) {
		t.Fatalf("fragmented message corrupted by interleaved pings: %d bytes", len(msg))
	}
	// The auto-pongs are all the server wrote, in ping order.
	var pongs bytes.Buffer
	for _, p := range []string{"ping-one", "ping-two"} {
		if err := naiveWriteFrame(&pongs, &Frame{FIN: true, Opcode: OpPong, Payload: []byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(s2c.Bytes(), pongs.Bytes()) {
		t.Fatalf("server wrote % x, want the two pongs % x", s2c.Bytes(), pongs.Bytes())
	}
	// The client's read passes over the pongs to the next data message.
	if err := server.WriteMessage(OpText, []byte("done")); err != nil {
		t.Fatal(err)
	}
	if _, msg, err = client.ReadMessage(); err != nil || string(msg) != "done" {
		t.Fatalf("client read: %q, %v", msg, err)
	}
}

// TestReadMessageBufferOwnership pins the documented ownership rule:
// the slice returned by ReadMessage aliases conn-owned scratch, so the
// next read reuses (and overwrites) the same backing array rather than
// allocating a fresh one.
func TestReadMessageBufferOwnership(t *testing.T) {
	client, server, _, _ := memPair(41, 42)
	if err := client.WriteMessage(OpBinary, fillPattern(64, 1)); err != nil {
		t.Fatal(err)
	}
	_, msg1, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.WriteMessage(OpBinary, fillPattern(64, 2)); err != nil {
		t.Fatal(err)
	}
	_, msg2, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if &msg1[0] != &msg2[0] {
		t.Error("equal-size reads did not reuse the message buffer; the pooled read path regressed to per-read allocation")
	}
	if !bytes.Equal(msg1, msg2) {
		// Same backing array: msg1 now aliases msg2's content. This is
		// the rule callers must respect by copying when they retain.
		t.Error("aliased slices differ — buffer bookkeeping bug")
	}
}

// TestSteadyStateZeroAlloc is the allocs/msg regression gate: a full
// echo round trip — client write, server read, server write, client
// read — must allocate nothing once buffers are warm, for small and
// page-sized payloads, text and binary.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   Opcode
		size int
	}{
		{"binary-128", OpBinary, 128},
		{"binary-4096", OpBinary, 4096},
		{"text-512", OpText, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server, _, _ := memPair(51, 52)
			payload := bytes.Repeat([]byte("t"), tc.size)
			roundTrip := func() {
				if err := client.WriteMessage(tc.op, payload); err != nil {
					t.Fatal(err)
				}
				if _, _, err := server.ReadMessage(); err != nil {
					t.Fatal(err)
				}
				if err := server.WriteMessage(tc.op, payload); err != nil {
					t.Fatal(err)
				}
				if _, _, err := client.ReadMessage(); err != nil {
					t.Fatal(err)
				}
			}
			roundTrip() // warm the scratch buffers
			if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
				t.Errorf("steady-state echo path allocates %.1f allocs/msg, want 0", allocs)
			}
		})
	}
}

// TestHandshakeWriterReturnedToPool: Dial and Accept borrow one
// *bufio.Writer for the handshake flush and hand it back, so a warm
// borrow-write-return cycle allocates nothing. A writer that is not
// returned costs a fresh bufio.Writer and its buffer per handshake.
func TestHandshakeWriterReturnedToPool(t *testing.T) {
	skipIfRace(t)
	handshake := func() {
		bw := getHandshakeWriter(io.Discard)
		if _, err := bw.WriteString("HTTP/1.1 101 Switching Protocols\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		putHandshakeWriter(bw)
	}
	handshake()
	if allocs := testing.AllocsPerRun(200, handshake); allocs != 0 {
		t.Errorf("handshake writer borrow/return allocates %.1f allocs, want 0", allocs)
	}
}

// skipIfRace skips allocation tests of pooled paths under the race
// detector, where sync.Pool drops items at random.
func skipIfRace(t *testing.T) {
	t.Helper()
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops items at random under the race detector")
			}
		}
	}
}

// TestWriteScratchReleasedAfterLargeFrame: a single outsized message
// must not pin its buffer for the connection's lifetime.
func TestWriteScratchReleasedAfterLargeFrame(t *testing.T) {
	client, server, _, _ := memPair(61, 62)
	big := fillPattern(maxRetainedBuf*2, 7)
	if err := client.WriteMessage(OpBinary, big); err != nil {
		t.Fatal(err)
	}
	if cap(client.wbuf) != 0 {
		t.Errorf("write scratch retained %d bytes after an outsized frame, want released", cap(client.wbuf))
	}
	if _, msg, err := server.ReadMessage(); err != nil || !bytes.Equal(msg, big) {
		t.Fatalf("large read: %d bytes, %v", len(msg), err)
	}
	// The read side releases on the *next* read; trigger it.
	if err := client.WriteMessage(OpBinary, []byte("small")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := server.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if cap(server.msgBuf) > maxRetainedBuf {
		t.Errorf("read scratch retained %d bytes after an outsized message, want ≤ %d", cap(server.msgBuf), maxRetainedBuf)
	}
}

// --- benchmarks ---

// discardConn counts writes and throws the bytes away.
type discardConn struct{ memConn }

func (c *discardConn) Write(p []byte) (int, error) { return len(p), nil }

func benchPayload(n int) []byte { return bytes.Repeat([]byte{0x5A}, n) }

// BenchmarkWSConnWriteMasked prices the client write path (header build
// + mask copy + coalesced write) at representative sizes. Must report
// 0 allocs/op.
func BenchmarkWSConnWriteMasked(b *testing.B) {
	for _, n := range []int{128, 1024, 4096, 65536} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			c := newConn(&discardConn{}, nil, true, rand.New(rand.NewSource(1)))
			payload := benchPayload(n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.WriteMessage(OpBinary, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWSConnWriteUnmasked prices the server write path, including
// the direct-write branch past the coalescing threshold.
func BenchmarkWSConnWriteUnmasked(b *testing.B) {
	for _, n := range []int{128, 4096, 65536} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			c := newConn(&discardConn{}, nil, false, rand.New(rand.NewSource(1)))
			payload := benchPayload(n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.WriteMessage(OpBinary, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWSEchoRoundTrip prices one full message round trip through
// both pooled codecs in memory: client encode+mask, server decode,
// server encode, client decode. This is the allocs/msg headline number:
// it must report 0 allocs/op.
func BenchmarkWSEchoRoundTrip(b *testing.B) {
	for _, n := range []int{128, 1024, 4096} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			client, server, _, _ := memPair(1, 2)
			payload := benchPayload(n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.WriteMessage(OpBinary, payload); err != nil {
					b.Fatal(err)
				}
				if _, _, err := server.ReadMessage(); err != nil {
					b.Fatal(err)
				}
				if err := server.WriteMessage(OpBinary, payload); err != nil {
					b.Fatal(err)
				}
				if _, _, err := client.ReadMessage(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWSEchoTCP is the same round trip over a real loopback TCP
// socket with an echoing peer goroutine: syscalls and scheduling
// included, the closest microbenchmark to what wsload measures
// end-to-end.
func BenchmarkWSEchoTCP(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		server := newConn(nc, nil, false, rand.New(rand.NewSource(2)))
		defer server.shutdown()
		for {
			op, msg, err := server.ReadMessage()
			if err != nil {
				return
			}
			if err := server.WriteMessage(op, msg); err != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	client := newConn(nc, nil, true, rand.New(rand.NewSource(1)))
	payload := benchPayload(1024)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.WriteMessage(OpBinary, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := client.ReadMessage(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	client.shutdown()
	wg.Wait()
}
