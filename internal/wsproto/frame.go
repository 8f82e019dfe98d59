// Package wsproto implements the WebSocket protocol (RFC 6455) over any
// net.Conn: the opening handshake, the frame codec (including masking,
// fragmentation, and control frames), and client/server connection types.
//
// The synthetic web in this repository carries its tracking traffic over
// genuine WebSocket connections built with this package, so the browser's
// socket detection, the devtools frame events, and the content analysis in
// the paper's Table 5 all exercise real protocol code.
package wsproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unicode/utf8"
)

// Opcode identifies the frame type per RFC 6455 §5.2.
type Opcode byte

// Frame opcodes.
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xA
)

// IsControl reports whether the opcode designates a control frame.
func (op Opcode) IsControl() bool { return op&0x8 != 0 }

// IsData reports whether the opcode designates a data frame
// (text, binary, or continuation).
func (op Opcode) IsData() bool {
	return op == OpContinuation || op == OpText || op == OpBinary
}

// String returns the RFC name of the opcode.
func (op Opcode) String() string {
	switch op {
	case OpContinuation:
		return "continuation"
	case OpText:
		return "text"
	case OpBinary:
		return "binary"
	case OpClose:
		return "close"
	case OpPing:
		return "ping"
	case OpPong:
		return "pong"
	default:
		return fmt.Sprintf("opcode(0x%x)", byte(op))
	}
}

// validOpcode reports whether op is an opcode defined by RFC 6455.
func validOpcode(op Opcode) bool {
	switch op {
	case OpContinuation, OpText, OpBinary, OpClose, OpPing, OpPong:
		return true
	}
	return false
}

// Close codes per RFC 6455 §7.4.1.
//
//lint:allow unusedapi the RFC's close-code table, kept whole: this endpoint sends four of its codes, and wsproto's tests send others as a peer would
const (
	CloseNormal             = 1000
	CloseGoingAway          = 1001
	CloseProtocolError      = 1002
	CloseUnsupportedData    = 1003
	CloseNoStatus           = 1005 // reserved: never sent on the wire
	CloseAbnormal           = 1006 // reserved: never sent on the wire
	CloseInvalidPayload     = 1007
	ClosePolicyViolation    = 1008
	CloseMessageTooBig      = 1009
	CloseMandatoryExtension = 1010
	CloseInternalError      = 1011
)

// validCloseCode reports whether code may appear in a Close frame on the
// wire (RFC 6455 §7.4).
func validCloseCode(code int) bool {
	switch {
	case code >= 1000 && code <= 1003:
		return true
	case code >= 1007 && code <= 1011:
		return true
	case code >= 3000 && code <= 4999:
		return true
	}
	return false
}

// Protocol errors surfaced by the codec.
var (
	ErrReservedBits       = errors.New("wsproto: non-zero reserved bits")
	ErrInvalidOpcode      = errors.New("wsproto: invalid opcode")
	ErrControlTooLong     = errors.New("wsproto: control frame payload exceeds 125 bytes")
	ErrControlFragmented  = errors.New("wsproto: fragmented control frame")
	ErrBadPayloadLength   = errors.New("wsproto: non-minimal or invalid payload length encoding")
	ErrFrameTooLarge      = errors.New("wsproto: frame exceeds maximum size")
	ErrUnmaskedClient     = errors.New("wsproto: client frame not masked")
	ErrMaskedServer       = errors.New("wsproto: server frame masked")
	ErrInvalidCloseFrame  = errors.New("wsproto: malformed close frame payload")
	ErrInvalidUTF8        = errors.New("wsproto: invalid UTF-8 in text message or close reason")
	ErrUnexpectedContinue = errors.New("wsproto: continuation frame without preceding data frame")
	ErrExpectedContinue   = errors.New("wsproto: new data frame while fragmented message in progress")
)

// Frame is a single WebSocket frame.
type Frame struct {
	// FIN is set on the final fragment of a message.
	FIN bool
	// Opcode identifies the frame type.
	Opcode Opcode
	// Masked is set when the payload is masked on the wire (mandatory
	// client→server, forbidden server→client).
	Masked bool
	// MaskKey is the 4-byte masking key when Masked is set.
	MaskKey [4]byte
	// Payload is the unmasked application payload.
	Payload []byte
}

// maxControlPayload is the RFC 6455 limit for control frame payloads.
const maxControlPayload = 125

// validateFrame applies the opcode and control-frame rules shared by
// every encoder.
func validateFrame(f *Frame) error {
	if !validOpcode(f.Opcode) {
		return ErrInvalidOpcode
	}
	if f.Opcode.IsControl() {
		if len(f.Payload) > maxControlPayload {
			return ErrControlTooLong
		}
		if !f.FIN {
			return ErrControlFragmented
		}
	}
	return nil
}

// appendFrameHeader appends the encoded frame header for f to dst.
func appendFrameHeader(dst []byte, f *Frame) []byte {
	b0 := byte(f.Opcode)
	if f.FIN {
		b0 |= 0x80
	}
	var b1 byte
	if f.Masked {
		b1 = 0x80
	}
	plen := len(f.Payload)
	switch {
	case plen <= 125:
		dst = append(dst, b0, b1|byte(plen))
	case plen <= 0xFFFF:
		dst = append(dst, b0, b1|126, byte(plen>>8), byte(plen))
	default:
		dst = append(dst, b0, b1|127)
		dst = binary.BigEndian.AppendUint64(dst, uint64(plen))
	}
	if f.Masked {
		dst = append(dst, f.MaskKey[0], f.MaskKey[1], f.MaskKey[2], f.MaskKey[3])
	}
	return dst
}

// appendMasked appends payload XOR'd with key to dst.
func appendMasked(dst []byte, key [4]byte, payload []byte) []byte {
	off := len(dst)
	dst = append(dst, payload...)
	maskBytes(key, 0, dst[off:])
	return dst
}

// maskBytes XORs b in place with the masking key, starting at key offset
// pos, and returns the key offset after the final byte.
func maskBytes(key [4]byte, pos int, b []byte) int {
	for i := range b {
		b[i] ^= key[(pos+i)&3]
	}
	return (pos + len(b)) & 3
}

// closePayload encodes a close code and reason into a close frame payload.
func closePayload(code int, reason string) []byte {
	if code == CloseNoStatus {
		return nil
	}
	p := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(p, uint16(code))
	copy(p[2:], reason)
	return p
}

// parseClosePayload decodes a close frame payload into code and reason.
// An empty payload means no status was supplied (CloseNoStatus).
func parseClosePayload(p []byte) (code int, reason string, err error) {
	switch {
	case len(p) == 0:
		return CloseNoStatus, "", nil
	case len(p) == 1:
		return 0, "", ErrInvalidCloseFrame
	}
	code = int(binary.BigEndian.Uint16(p[:2]))
	switch {
	case !validCloseCode(code):
		return 0, "", ErrInvalidCloseFrame
	case !utf8.Valid(p[2:]): // §5.5.1: the reason is UTF-8
		return 0, "", ErrInvalidUTF8
	}
	return code, string(p[2:]), nil
}
