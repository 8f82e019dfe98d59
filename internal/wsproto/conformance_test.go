package wsproto

// Conformance vectors for the frame codec: known byte sequences from
// RFC 6455 §5.7 and hand-derived edge cases, checked in both directions:
// Conn decodes the wire bytes, and naiveWriteFrame — the oracle
// Conn's writer is held to — encodes to the same bytes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// rfcVectors are the worked examples of RFC 6455 §5.7 plus structural
// edge cases around the 7/16/64-bit length boundaries.
func rfcVectors() []struct {
	name  string
	wire  []byte
	frame Frame
} {
	longPayload := bytes.Repeat([]byte{0xAA}, 65536)
	longWire := append([]byte{0x82, 127}, make([]byte, 8)...)
	binary.BigEndian.PutUint64(longWire[2:10], 65536)
	longWire = append(longWire, longPayload...)

	boundary125 := bytes.Repeat([]byte{'x'}, 125)
	boundary126 := bytes.Repeat([]byte{'y'}, 126)
	boundary65535 := bytes.Repeat([]byte{'z'}, 65535)

	w126 := append([]byte{0x81, 126, 0x00, 126}, boundary126...)
	w65535 := append([]byte{0x81, 126, 0xFF, 0xFF}, boundary65535...)

	return []struct {
		name  string
		wire  []byte
		frame Frame
	}{
		{
			// RFC 6455 §5.7: single-frame unmasked text "Hello".
			name:  "rfc_unmasked_hello",
			wire:  []byte{0x81, 0x05, 0x48, 0x65, 0x6c, 0x6c, 0x6f},
			frame: Frame{FIN: true, Opcode: OpText, Payload: []byte("Hello")},
		},
		{
			// RFC 6455 §5.7: single-frame masked text "Hello".
			name: "rfc_masked_hello",
			wire: []byte{0x81, 0x85, 0x37, 0xfa, 0x21, 0x3d, 0x7f, 0x9f, 0x4d, 0x51, 0x58},
			frame: Frame{FIN: true, Opcode: OpText, Masked: true,
				MaskKey: [4]byte{0x37, 0xfa, 0x21, 0x3d}, Payload: []byte("Hello")},
		},
		{
			// RFC 6455 §5.7: fragmented unmasked text, first fragment "Hel".
			name:  "rfc_fragment_1",
			wire:  []byte{0x01, 0x03, 0x48, 0x65, 0x6c},
			frame: Frame{FIN: false, Opcode: OpText, Payload: []byte("Hel")},
		},
		{
			// RFC 6455 §5.7: final continuation fragment "lo".
			name:  "rfc_fragment_2",
			wire:  []byte{0x80, 0x02, 0x6c, 0x6f},
			frame: Frame{FIN: true, Opcode: OpContinuation, Payload: []byte("lo")},
		},
		{
			// RFC 6455 §5.7: unmasked ping with body "Hello".
			name:  "rfc_ping",
			wire:  []byte{0x89, 0x05, 0x48, 0x65, 0x6c, 0x6c, 0x6f},
			frame: Frame{FIN: true, Opcode: OpPing, Payload: []byte("Hello")},
		},
		{
			// RFC 6455 §5.7: masked pong with body "Hello".
			name: "rfc_masked_pong",
			wire: []byte{0x8a, 0x85, 0x37, 0xfa, 0x21, 0x3d, 0x7f, 0x9f, 0x4d, 0x51, 0x58},
			frame: Frame{FIN: true, Opcode: OpPong, Masked: true,
				MaskKey: [4]byte{0x37, 0xfa, 0x21, 0x3d}, Payload: []byte("Hello")},
		},
		{
			// Largest 7-bit length.
			name:  "len_125",
			wire:  append([]byte{0x81, 125}, boundary125...),
			frame: Frame{FIN: true, Opcode: OpText, Payload: boundary125},
		},
		{
			// Smallest 16-bit length.
			name:  "len_126",
			wire:  w126,
			frame: Frame{FIN: true, Opcode: OpText, Payload: boundary126},
		},
		{
			// Largest 16-bit length.
			name:  "len_65535",
			wire:  w65535,
			frame: Frame{FIN: true, Opcode: OpText, Payload: boundary65535},
		},
		{
			// Smallest 64-bit length (RFC 6455 §5.7's 256-byte example
			// scaled to the boundary).
			name:  "len_65536",
			wire:  longWire,
			frame: Frame{FIN: true, Opcode: OpBinary, Payload: longPayload},
		},
		{
			// Empty unmasked close frame (no status).
			name:  "close_empty",
			wire:  []byte{0x88, 0x00},
			frame: Frame{FIN: true, Opcode: OpClose},
		},
	}
}

// TestConformanceDecode reads each vector on the side that receives it
// (masked frames on a server conn): the header parser yields the frame,
// and ReadMessage yields each vector that is a whole message.
func TestConformanceDecode(t *testing.T) {
	for _, v := range rfcVectors() {
		t.Run(v.name, func(t *testing.T) {
			got, err := readFrame(wireConn(v.wire, !v.frame.Masked))
			if err != nil {
				t.Fatalf("readFrame: %v", err)
			}
			if got.FIN != v.frame.FIN || got.Opcode != v.frame.Opcode || got.Masked != v.frame.Masked {
				t.Errorf("header mismatch: got %+v", got)
			}
			if got.Masked && got.MaskKey != v.frame.MaskKey {
				t.Errorf("mask key = %x, want %x", got.MaskKey, v.frame.MaskKey)
			}
			if !bytes.Equal(got.Payload, v.frame.Payload) {
				t.Errorf("payload mismatch: %d bytes vs %d", len(got.Payload), len(v.frame.Payload))
			}
			if !v.frame.FIN || v.frame.Opcode != OpText && v.frame.Opcode != OpBinary {
				return
			}
			op, msg, err := wireConn(v.wire, !v.frame.Masked).ReadMessage()
			if err != nil || op != v.frame.Opcode || !bytes.Equal(msg, v.frame.Payload) {
				t.Errorf("ReadMessage = %v, %d bytes, %v", op, len(msg), err)
			}
		})
	}
}

// TestConformanceEncode holds the oracle to the RFC bytes, and a server
// conn to them on every unmasked vector. A client's key comes from its
// rng; TestPooledClientBytesMatchReference holds masked writes to the
// oracle.
func TestConformanceEncode(t *testing.T) {
	for _, v := range rfcVectors() {
		t.Run(v.name, func(t *testing.T) {
			var buf bytes.Buffer
			f := v.frame
			if err := naiveWriteFrame(&buf, &f); err != nil {
				t.Fatalf("naiveWriteFrame: %v", err)
			}
			checkWire(t, "naiveWriteFrame", buf.Bytes(), v.wire)
			if f.Masked {
				return
			}
			_, server, _, s2c := memPair(1, 2)
			if err := server.writeFrame(&f); err != nil {
				t.Fatalf("writeFrame: %v", err)
			}
			checkWire(t, "Conn", s2c.Bytes(), v.wire)
		})
	}
}

func checkWire(t *testing.T, who string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("%s wire mismatch: got % x..., want % x... (lengths %d vs %d)",
		who, head(got), head(want), len(got), len(want))
}

// TestConformanceStreamReassembly feeds the vectors of each direction
// through one conn's ReadMessage as a contiguous stream: fragments
// assemble, control frames are answered in between, and every message
// comes out whole. The unmasked stream ends in its close frame, the
// masked one at the end of input.
func TestConformanceStreamReassembly(t *testing.T) {
	type message struct {
		op      Opcode
		payload []byte
	}
	for _, masked := range []bool{false, true} {
		var stream bytes.Buffer
		var want []message
		var cur message
		for _, v := range rfcVectors() {
			if v.frame.Masked != masked {
				continue
			}
			stream.Write(v.wire)
			if v.frame.Opcode.IsControl() {
				continue
			}
			if v.frame.Opcode != OpContinuation {
				cur.op = v.frame.Opcode
			}
			cur.payload = append(cur.payload, v.frame.Payload...)
			if v.frame.FIN {
				want = append(want, cur)
				cur = message{}
			}
		}
		c := wireConn(stream.Bytes(), !masked)
		for i, w := range want {
			op, msg, err := c.ReadMessage()
			if err != nil {
				t.Fatalf("masked=%v message %d: %v", masked, i, err)
			}
			if op != w.op || !bytes.Equal(msg, w.payload) {
				t.Fatalf("masked=%v message %d corrupted in stream: %v, %d bytes", masked, i, op, len(msg))
			}
		}
		_, _, err := c.ReadMessage()
		var ce *CloseError
		if masked && err != io.EOF || !masked && (!errors.As(err, &ce) || ce.Code != CloseNoStatus) {
			t.Errorf("masked=%v stream end: %v", masked, err)
		}
	}
}

// TestConformanceTruncations verifies that every proper prefix of a
// valid frame fails with an unexpected-EOF class error rather than a
// bogus success.
func TestConformanceTruncations(t *testing.T) {
	wire := []byte{0x81, 0x85, 0x37, 0xfa, 0x21, 0x3d, 0x7f, 0x9f, 0x4d, 0x51, 0x58}
	for cut := 1; cut < len(wire); cut++ {
		_, msg, err := wireConn(wire[:cut], false).ReadMessage()
		if err == nil || msg != nil {
			t.Errorf("prefix of %d bytes decoded successfully", cut)
		}
	}
}

// TestConformanceMaskedRoundTripAllOffsets checks masking at every
// payload length 0..67 to cover all mask-key phase alignments.
func TestConformanceMaskedRoundTripAllOffsets(t *testing.T) {
	client, server, _, _ := memPair(13, 14)
	for n := 0; n <= 67; n++ {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		if err := client.WriteMessage(OpBinary, payload); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		_, got, err := server.ReadMessage()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: payload corrupted", n)
		}
	}
}
