package wsproto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// sendFrame writes f from the side of a memPair that masks as f asks —
// the client, under a key its rng draws, or the unmasked server — and
// returns the peer that reads it.
func sendFrame(client, server *Conn, f *Frame) (*Conn, error) {
	if f.Masked {
		return server, client.writeFrame(f)
	}
	return client, server.writeFrame(f)
}

// TestFrameRoundTrip writes each frame with Conn.writeFrame and reads it
// back with the peer's header parser.
func TestFrameRoundTrip(t *testing.T) {
	tests := []Frame{
		{FIN: true, Opcode: OpText, Payload: []byte("hello")},
		{FIN: true, Opcode: OpBinary, Payload: bytes.Repeat([]byte{0xAB}, 126)},
		{FIN: true, Opcode: OpBinary, Payload: bytes.Repeat([]byte{0xCD}, 65536)},
		{FIN: false, Opcode: OpText, Payload: []byte("frag")},
		{FIN: true, Opcode: OpPing, Payload: []byte("p")},
		{FIN: true, Opcode: OpPong, Payload: nil},
		{FIN: true, Opcode: OpClose, Payload: closePayload(CloseNormal, "bye")},
		{FIN: true, Opcode: OpText, Masked: true, Payload: []byte("masked payload")},
	}
	client, server, _, _ := memPair(1, 2)
	for i, f := range tests {
		sent := f
		peer, err := sendFrame(client, server, &sent)
		if err != nil {
			t.Fatalf("case %d: writeFrame: %v", i, err)
		}
		got, err := readFrame(peer)
		if err != nil {
			t.Fatalf("case %d: readFrame: %v", i, err)
		}
		if got.FIN != f.FIN || got.Opcode != f.Opcode || got.Masked != f.Masked || got.MaskKey != sent.MaskKey || !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("case %d: round trip mismatch: got %+v want %+v", i, got, f)
		}
	}
}

// TestFrameRoundTripProperty uses testing/quick over random payloads,
// opcodes, FIN bits and directions: what one conn writes, its peer
// reads back whole, and nothing is left over.
func TestFrameRoundTripProperty(t *testing.T) {
	client, server, c2s, s2c := memPair(3, 4)
	f := func(payload []byte, opSel uint8, fin, masked bool) bool {
		ops := []Opcode{OpText, OpBinary, OpContinuation}
		fr := Frame{FIN: fin, Opcode: ops[int(opSel)%len(ops)], Masked: masked, Payload: payload}
		sent := fr
		peer, err := sendFrame(client, server, &sent)
		if err != nil {
			return false
		}
		got, err := readFrame(peer)
		if err != nil {
			return false
		}
		return got.FIN == fr.FIN && got.Opcode == fr.Opcode && got.Masked == fr.Masked &&
			bytes.Equal(got.Payload, fr.Payload) && c2s.Len() == 0 && s2c.Len() == 0 && peer.br.Buffered() == 0
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestMaskingOnWire verifies that a client's payload is actually
// XOR-transformed on the wire, not sent in the clear.
func TestMaskingOnWire(t *testing.T) {
	client, _, c2s, _ := memPair(5, 6)
	payload := []byte("secret-tracking-id")
	if err := client.WriteMessage(OpText, payload); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(c2s.Bytes(), payload) {
		t.Error("masked payload appears in cleartext on the wire")
	}
	// The original payload must not be clobbered by masking.
	if string(payload) != "secret-tracking-id" {
		t.Error("WriteMessage mutated the caller's payload")
	}
}

func TestMaskBytesOffset(t *testing.T) {
	key := [4]byte{1, 2, 3, 4}
	whole := []byte{10, 20, 30, 40, 50, 60, 70}
	a := append([]byte(nil), whole...)
	maskBytes(key, 0, a)

	b := append([]byte(nil), whole...)
	pos := maskBytes(key, 0, b[:3])
	maskBytes(key, pos, b[3:])
	if !bytes.Equal(a, b) {
		t.Errorf("split masking differs from whole masking: %v vs %v", a, b)
	}
}

func TestControlFrameLimits(t *testing.T) {
	client, server, _, _ := memPair(7, 8)
	long := bytes.Repeat([]byte{'x'}, 126)
	for _, c := range []*Conn{client, server} {
		if err := c.writeFrame(&Frame{FIN: true, Opcode: OpPing, Payload: long}); err != ErrControlTooLong {
			t.Errorf("oversized ping: got %v, want ErrControlTooLong", err)
		}
		if err := c.writeFrame(&Frame{FIN: false, Opcode: OpPing, Payload: []byte("x")}); err != ErrControlFragmented {
			t.Errorf("fragmented ping: got %v, want ErrControlFragmented", err)
		}
	}
}

func TestReadFrameRejectsReservedBits(t *testing.T) {
	raw := []byte{0x80 | 0x40 | byte(OpText), 0x00} // RSV1 set
	if _, err := readFrame(wireConn(raw, true)); err != ErrReservedBits {
		t.Errorf("got %v, want ErrReservedBits", err)
	}
}

func TestReadFrameRejectsInvalidOpcode(t *testing.T) {
	raw := []byte{0x80 | 0x3, 0x00} // opcode 0x3 is reserved
	if _, err := readFrame(wireConn(raw, true)); err != ErrInvalidOpcode {
		t.Errorf("got %v, want ErrInvalidOpcode", err)
	}
}

func TestReadFrameRejectsNonMinimalLength(t *testing.T) {
	// 16-bit extended length used for a 5-byte payload: non-minimal.
	raw := []byte{0x80 | byte(OpText), 126, 0, 5, 'h', 'e', 'l', 'l', 'o'}
	if _, err := readFrame(wireConn(raw, true)); err != ErrBadPayloadLength {
		t.Errorf("got %v, want ErrBadPayloadLength", err)
	}
	// 64-bit extended length for a value that fits in 16 bits.
	raw = make([]byte, 10)
	raw[0] = 0x80 | byte(OpBinary)
	raw[1] = 127
	binary.BigEndian.PutUint64(raw[2:], 100)
	if _, err := readFrame(wireConn(raw, true)); err != ErrBadPayloadLength {
		t.Errorf("got %v, want ErrBadPayloadLength", err)
	}
}

// TestReadFrameEnforcesMaxSize: one frame past the conn's message cap
// fails the read.
func TestReadFrameEnforcesMaxSize(t *testing.T) {
	client, server, _, _ := memPair(9, 10)
	server.maxMsgSize = 100
	if err := client.WriteMessage(OpBinary, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := server.ReadMessage(); err != ErrFrameTooLarge {
		t.Errorf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestClosePayloadRoundTrip(t *testing.T) {
	tests := []struct {
		code   int
		reason string
	}{
		{CloseNormal, "done"},
		{CloseGoingAway, ""},
		{ClosePolicyViolation, "blocked"},
		{4001, "app-defined"},
	}
	for _, tc := range tests {
		p := closePayload(tc.code, tc.reason)
		code, reason, err := parseClosePayload(p)
		if err != nil {
			t.Fatalf("parseClosePayload(%d, %q): %v", tc.code, tc.reason, err)
		}
		if code != tc.code || reason != tc.reason {
			t.Errorf("round trip = (%d, %q), want (%d, %q)", code, reason, tc.code, tc.reason)
		}
	}
	if code, _, err := parseClosePayload(nil); err != nil || code != CloseNoStatus {
		t.Errorf("empty close payload: code=%d err=%v", code, err)
	}
	if _, _, err := parseClosePayload([]byte{1}); err != ErrInvalidCloseFrame {
		t.Errorf("1-byte close payload: got %v, want ErrInvalidCloseFrame", err)
	}
	if _, _, err := parseClosePayload(closePayload(1005, "")); err == nil {
		// 1005 must never appear on the wire; closePayload(1005) encodes
		// nothing, so craft it manually.
		t.Log("closePayload(1005) encodes empty payload as required")
	}
	bad := []byte{0x03, 0xED} // 1005
	if _, _, err := parseClosePayload(bad); err != ErrInvalidCloseFrame {
		t.Errorf("reserved close code on wire: got %v, want ErrInvalidCloseFrame", err)
	}
}

func TestValidCloseCode(t *testing.T) {
	valid := []int{1000, 1001, 1002, 1003, 1007, 1011, 3000, 4999}
	invalid := []int{999, 1004, 1005, 1006, 1012, 2999, 5000}
	for _, c := range valid {
		if !validCloseCode(c) {
			t.Errorf("validCloseCode(%d) = false, want true", c)
		}
	}
	for _, c := range invalid {
		if validCloseCode(c) {
			t.Errorf("validCloseCode(%d) = true, want false", c)
		}
	}
}

func TestOpcodeClassification(t *testing.T) {
	if !OpPing.IsControl() || !OpPong.IsControl() || !OpClose.IsControl() {
		t.Error("control opcodes misclassified")
	}
	if OpText.IsControl() || OpBinary.IsControl() || OpContinuation.IsControl() {
		t.Error("data opcodes classified as control")
	}
	if !OpText.IsData() || !OpBinary.IsData() || !OpContinuation.IsData() {
		t.Error("data opcodes misclassified")
	}
	for op, want := range map[Opcode]string{
		OpText: "text", OpBinary: "binary", OpClose: "close",
		OpPing: "ping", OpPong: "pong", OpContinuation: "continuation",
	} {
		if op.String() != want {
			t.Errorf("Opcode(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
}
