package wsproto

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"unicode/utf8"
)

// fuzzMaxMsg is the message cap the hostile half of FuzzReadMessage reads
// under: small, so length claims above it are common.
const fuzzMaxMsg = 1024

// FuzzReadMessage feeds hostile bytes to the frame reader production
// runs — Conn.readHeader under ReadMessage — on a client-side and a
// server-side conn. Whatever the bytes, a read never panics, never holds
// more than the conn's message cap for one message (nor grows its buffer
// past twice that), returns only complete data messages — valid UTF-8
// when text — and every input ends in an error after at most one message
// per two bytes. Alongside, a message naiveWriteFrame writes as two
// fragments with a ping between them, masked as its direction requires,
// must read back whole on the conn it was sent to.
func FuzzReadMessage(f *testing.F) {
	frames := func(fs ...Frame) []byte {
		var b bytes.Buffer
		for i := range fs {
			if err := naiveWriteFrame(&b, &fs[i]); err != nil {
				f.Fatal(err)
			}
		}
		return b.Bytes()
	}
	key := [4]byte{1, 2, 3, 4}
	f.Add(frames(Frame{FIN: true, Opcode: OpText, Payload: []byte("hello")}), []byte("hi"), uint8(1), true)
	f.Add(frames(Frame{FIN: true, Opcode: OpText, Masked: true, MaskKey: key, Payload: []byte("hello")}), []byte{0xff, 0}, uint8(0), false)
	f.Add(frames(
		Frame{Opcode: OpBinary, Payload: []byte("frag")},
		Frame{FIN: true, Opcode: OpPing, Payload: []byte("p")},
		Frame{FIN: true, Opcode: OpContinuation, Payload: []byte("ment")},
	), bytes.Repeat([]byte("x"), 300), uint8(200), false)
	f.Add(frames(Frame{FIN: true, Opcode: OpClose, Payload: []byte{0x03, 0xe8, 'b', 'y', 'e'}}), []byte{}, uint8(0), true)
	f.Add(frames(Frame{FIN: true, Opcode: OpBinary, Payload: make([]byte, 2*fuzzMaxMsg)}), []byte("é"), uint8(1), true)
	f.Add([]byte{0x82, 0x7f, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, []byte("a"), uint8(0), false)  // 4 GiB length claim
	f.Add([]byte{0x82, 0x7e, 0x00, 0x05, 'a', 'b', 'c', 'd', 'e'}, []byte("a"), uint8(0), false) // non-minimal length
	f.Add([]byte{0xf2, 0x00}, []byte("a"), uint8(0), false)                                      // reserved bits
	f.Add([]byte{0x09, 0x00}, []byte("a"), uint8(0), false)                                      // fragmented ping
	f.Add([]byte{0x80, 0x00}, []byte("a"), uint8(0), false)                                      // continuation first
	f.Fuzz(func(t *testing.T, data, payload []byte, split uint8, text bool) {
		for _, isClient := range []bool{true, false} {
			readHostile(t, data, isClient)
			roundTrip(t, payload, split, text, isClient)
		}
	})
}

// readHostile reads data as one side of a connection until it errors.
func readHostile(t *testing.T, data []byte, isClient bool) {
	c := wireConn(data, isClient)
	c.maxMsgSize = fuzzMaxMsg
	for msgs := 0; ; msgs++ {
		op, msg, err := c.ReadMessage()
		if len(c.msgBuf) > fuzzMaxMsg || cap(c.msgBuf) > 2*fuzzMaxMsg {
			t.Fatalf("client=%v: message buffer holds %d bytes (cap %d), cap is %d", isClient, len(c.msgBuf), cap(c.msgBuf), fuzzMaxMsg)
		}
		if err != nil {
			if msg != nil {
				t.Fatalf("client=%v: error %v with a message", isClient, err)
			}
			return
		}
		if 2*(msgs+1) > len(data) { // a frame header is two bytes at least
			t.Fatalf("client=%v: %d messages from %d bytes", isClient, msgs+1, len(data))
		}
		if op != OpText && op != OpBinary {
			t.Fatalf("client=%v: returned a message with opcode %v", isClient, op)
		}
		if op == OpText && !utf8.Valid(msg) {
			t.Fatalf("client=%v: returned invalid UTF-8 as text", isClient)
		}
	}
}

// roundTrip writes payload with naiveWriteFrame as two fragments split
// at split, with a ping between them, and reads it back on the side it
// was sent to.
func roundTrip(t *testing.T, payload []byte, split uint8, text bool, isClient bool) {
	op := OpBinary
	if text && utf8.Valid(payload) {
		op = OpText
	}
	k := int(split) % (len(payload) + 1)
	var wire bytes.Buffer
	for _, fr := range []Frame{
		{Opcode: op, Payload: payload[:k]},
		{FIN: true, Opcode: OpPing, Payload: payload[:min(k, maxControlPayload)]},
		{FIN: true, Opcode: OpContinuation, Payload: payload[k:]},
	} {
		fr.Masked = !isClient // frames a client sends are masked
		fr.MaskKey = [4]byte{split, ^split, 7, 0x5a}
		if err := naiveWriteFrame(&wire, &fr); err != nil {
			t.Fatal(err)
		}
	}
	gotOp, got, err := wireConn(wire.Bytes(), isClient).ReadMessage()
	if err != nil || gotOp != op || !bytes.Equal(got, payload) {
		t.Fatalf("client=%v: %v message of %d bytes read back as %v, %d bytes, %v", isClient, op, len(payload), gotOp, len(got), err)
	}
}

// FuzzConnWriteMatchesNaive holds the shipping writer, Conn.writeFrame,
// to the reference encoder naiveWriteFrame. For any frame validateFrame
// accepts, a server conn writes exactly the reference bytes, a client
// conn writes them masked under the key its seeded rng draws, and the
// peer's ReadMessage reads what the conn wrote back.
func FuzzConnWriteMatchesNaive(f *testing.F) {
	f.Add([]byte("Hello"), uint8(OpText), true, int64(1))
	f.Add([]byte{0xff, 0xfe}, uint8(OpText), true, int64(2))
	f.Add(bytes.Repeat([]byte("y"), 126), uint8(OpBinary), false, int64(3))
	f.Add(bytes.Repeat([]byte("z"), 65536), uint8(OpBinary), true, int64(4))
	f.Add([]byte("lo"), uint8(OpContinuation), true, int64(5))
	f.Add([]byte("beat"), uint8(OpPing), true, int64(6))
	f.Add([]byte{}, uint8(OpPong), true, int64(7))
	f.Add([]byte{0x03, 0xe9, 'b', 'y', 'e'}, uint8(OpClose), true, int64(8))
	f.Add([]byte{0x03, 0xed}, uint8(OpClose), true, int64(9)) // 1005 on the wire
	f.Fuzz(func(t *testing.T, payload []byte, op uint8, fin bool, seed int64) {
		fr := Frame{FIN: fin, Opcode: Opcode(op & 0x0F), Payload: payload}
		if validateFrame(&fr) != nil {
			return
		}
		for _, isClient := range []bool{false, true} {
			ref := fr
			if isClient {
				ref.Masked = true
				rand.New(rand.NewSource(seed)).Read(ref.MaskKey[:])
			}
			var want, got bytes.Buffer
			if err := naiveWriteFrame(&want, &ref); err != nil {
				t.Fatal(err)
			}
			sent := fr
			c := newConn(&memConn{out: &got}, nil, isClient, rand.New(rand.NewSource(seed)))
			if err := c.writeFrame(&sent); err != nil {
				t.Fatalf("client=%v: %v frame: %v", isClient, fr.Opcode, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("client=%v: %v frame of %d bytes: conn wrote % x, reference % x",
					isClient, fr.Opcode, len(payload), head(got.Bytes()), head(want.Bytes()))
			}
			readBack(t, fr, got.Bytes(), isClient)
		}
	})
}

// head is the start of a wire image, for failure messages.
func head(b []byte) []byte { return b[:min(len(b), 16)] }

// readBack reads wire, the frame fr as a conn wrote it, on that conn's
// peer, with the frames around it that make ReadMessage return: an
// opening fragment before a continuation, a final one after an
// unfinished data frame, an empty binary message after a ping or pong.
// A close frame ends the read with the close it carries.
func readBack(t *testing.T, fr Frame, wire []byte, fromClient bool) {
	frame := func(f Frame) []byte {
		f.Masked = fromClient
		f.MaskKey = [4]byte{9, 8, 7, 6}
		var b bytes.Buffer
		if err := naiveWriteFrame(&b, &f); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	var in []byte
	wantOp, want := fr.Opcode, fr.Payload
	if fr.Opcode == OpContinuation {
		in, wantOp = frame(Frame{Opcode: OpBinary}), OpBinary
	}
	in = append(in, wire...)
	switch {
	case fr.Opcode == OpPing || fr.Opcode == OpPong:
		in = append(in, frame(Frame{FIN: true, Opcode: OpBinary})...)
		wantOp, want = OpBinary, nil
	case fr.Opcode.IsData() && !fr.FIN:
		in = append(in, frame(Frame{FIN: true, Opcode: OpContinuation})...)
	}
	op, msg, err := wireConn(in, !fromClient).ReadMessage()
	if fr.Opcode == OpClose {
		code, reason, cerr := parseClosePayload(fr.Payload)
		var ce *CloseError
		if cerr != nil && err != cerr || cerr == nil && (!errors.As(err, &ce) || ce.Code != code || ce.Reason != reason) {
			t.Fatalf("client=%v: close payload % x read as %v", fromClient, fr.Payload, err)
		}
		return
	}
	if wantOp == OpText && !utf8.Valid(want) {
		if err != ErrInvalidUTF8 {
			t.Fatalf("client=%v: invalid UTF-8 text read as %v", fromClient, err)
		}
		return
	}
	if err != nil || op != wantOp || !bytes.Equal(msg, want) {
		t.Fatalf("client=%v: %v frame of %d bytes read back as %v, %d bytes, %v", fromClient, fr.Opcode, len(fr.Payload), op, len(msg), err)
	}
}
