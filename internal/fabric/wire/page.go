package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// The page frame is the hot frame of the protocol — one per crawled
// page — and has one shape: the one encoding/json gives it,
//
//	{"v":1,"type":"page","page":{"batch":B,"site":S,"line":L}}
//
// with B and S plain strings (printable ASCII, with json's \u0026 \u003c
// \u003e escapes for & < > and no other escape) and L a compact JSON
// value json copies unchanged both ways: no whitespace outside strings
// and nothing for the encoder to escape (& < > U+2028 U+2029). Encode
// writes that shape by hand when B, S and L qualify, and Decode cuts L
// out of a frame of that shape after one scan of it; every other page
// and frame goes through encoding/json, so the bytes and the frames
// accepted are the standard library's (FuzzWireDecode).

// pagePrefix opens every page frame of this version.
var pagePrefix = fmt.Sprintf(`{"v":%d,"type":%q,"page":{"batch":`, Version, TypePage)

// encodePage renders p's frame in one allocation, or reports false.
func encodePage(p *Page) ([]byte, bool) {
	nb, ns := plainLen(p.Batch), plainLen(p.Site)
	if nb < 0 || ns < 0 || !compactJSON(p.Line) {
		return nil, false
	}
	b := make([]byte, 0, len(pagePrefix)+nb+len(`,"site":`)+ns+len(`,"line":`)+len(p.Line)+len("}}"))
	b = append(b, pagePrefix...)
	b = appendPlain(b, p.Batch)
	b = append(b, `,"site":`...)
	b = appendPlain(b, p.Site)
	b = append(b, `,"line":`...)
	b = append(b, p.Line...)
	return append(b, "}}"...), true
}

// decodePage decodes data if it is a page frame of the encoder's shape.
func decodePage(data []byte) (*Page, bool) {
	rest, ok := bytes.CutPrefix(data, []byte(pagePrefix))
	if !ok || !bytes.HasSuffix(rest, []byte("}}")) {
		return nil, false
	}
	rest = rest[:len(rest)-2]
	p := &Page{}
	if rest, ok = cutPlain(rest, &p.Batch); !ok {
		return nil, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"site":`)); !ok {
		return nil, false
	}
	if rest, ok = cutPlain(rest, &p.Site); !ok {
		return nil, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"line":`)); !ok || !compactJSON(rest) {
		return nil, false
	}
	p.Line = append(json.RawMessage(nil), rest...)
	return p, true
}

// plainLen is the length of s quoted, or -1 when s is not plain.
func plainLen(s string) int {
	n := len(s) + 2
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '&' || c == '<' || c == '>':
			n += 5
		case c < 0x20 || c > 0x7e || c == '"' || c == '\\':
			return -1
		}
	}
	return n
}

// appendPlain appends plain string s quoted.
func appendPlain(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '&' || c == '<' || c == '>' {
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		} else {
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// cutPlain copies the plain string that opens b into dst and returns
// the rest of b.
func cutPlain(b []byte, dst *string) ([]byte, bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, false
	}
	end := bytes.IndexByte(b[1:], '"') + 1
	if end == 0 {
		return nil, false
	}
	raw, escapes := b[1:end], 0
	for _, c := range raw {
		switch {
		case c == '\\':
			escapes++
		case c < 0x20 || c > 0x7e:
			return nil, false
		}
	}
	if escapes == 0 {
		*dst = string(raw)
		return b[end+1:], true
	}
	var sb strings.Builder
	sb.Grow(len(raw))
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			sb.WriteByte(raw[i])
			continue
		}
		switch {
		case bytes.HasPrefix(raw[i:], []byte(`\u0026`)):
			sb.WriteByte('&')
		case bytes.HasPrefix(raw[i:], []byte(`\u003c`)):
			sb.WriteByte('<')
		case bytes.HasPrefix(raw[i:], []byte(`\u003e`)):
			sb.WriteByte('>')
		default:
			return nil, false
		}
		i += len(`\u0026`) - 1
	}
	*dst = sb.String()
	return b[end+1:], true
}

// maxDepth bounds compactJSON's nesting; deeper values, which no spool
// line has, are left to encoding/json.
const maxDepth = 64

// compactJSON reports whether b is one JSON value in the shape a page
// line must have: valid, no whitespace outside strings, and no byte
// json.Marshal would escape.
func compactJSON(b []byte) bool {
	end, ok := scanValue(b, 0, 0)
	return ok && end == len(b)
}

// scanValue scans the value that starts at b[i] and returns where it
// ends.
func scanValue(b []byte, i, depth int) (int, bool) {
	if i >= len(b) {
		return i, false
	}
	switch c := b[i]; c {
	case '"':
		return scanString(b, i)
	case '{', '[':
		if depth == maxDepth {
			return i, false
		}
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		i++
		if i < len(b) && b[i] == closer {
			return i + 1, true
		}
		for {
			var ok bool
			if c == '{' {
				if i, ok = scanString(b, i); !ok || i >= len(b) || b[i] != ':' {
					return i, false
				}
				i++
			}
			if i, ok = scanValue(b, i, depth+1); !ok || i >= len(b) {
				return i, false
			}
			switch b[i] {
			case ',':
				i++
			case closer:
				return i + 1, true
			default:
				return i, false
			}
		}
	case 't':
		return scanLiteral(b, i, "true")
	case 'f':
		return scanLiteral(b, i, "false")
	case 'n':
		return scanLiteral(b, i, "null")
	}
	return scanNumber(b, i)
}

func scanLiteral(b []byte, i int, lit string) (int, bool) {
	if !bytes.HasPrefix(b[i:], []byte(lit)) {
		return i, false
	}
	return i + len(lit), true
}

// lineByte marks the bytes a line's string carries with no further
// look: everything but the quote, the backslash, control bytes, the
// three bytes json escapes, and 0xE2, which starts U+2028 and U+2029.
var lineByte = func() (t [256]bool) {
	for c := 0x20; c < 0x100; c++ {
		t[c] = c != '"' && c != '\\' && c != '&' && c != '<' && c != '>' && c != 0xe2
	}
	return t
}()

func scanString(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '"' {
		return i, false
	}
	for i++; i < len(b); i++ {
		if lineByte[b[i]] {
			continue
		}
		switch b[i] {
		case '"':
			return i + 1, true
		case '\\':
			i++
			if i >= len(b) {
				return i, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return i, false
				}
				i += 4
			default:
				return i, false
			}
		case 0xe2:
			if i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xa8 {
				return i, false
			}
		default:
			return i, false
		}
	}
	return i, false
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func scanNumber(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return i, false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return i, false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	return i, true
}
