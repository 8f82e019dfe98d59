package jsonshape

import "strings"

// maxDepth bounds Compact's nesting; deeper values, which no spool
// line has, are left to encoding/json.
const maxDepth = 64

// Compact reports whether b is one JSON value encoding/json copies
// unchanged both ways as a json.RawMessage: valid, no whitespace outside
// strings, and no byte json.Marshal would escape (& < > U+2028 U+2029).
func Compact(b []byte) bool {
	c := Cursor[[]byte]{S: b}
	return c.value(0) && c.Done()
}

// value consumes one compact value.
func (c *Cursor[S]) value(depth int) bool {
	if c.I >= len(c.S) {
		return false
	}
	switch open := c.S[c.I]; open {
	case '"':
		return c.compactString()
	case '{', '[':
		if depth == maxDepth {
			return false
		}
		closer := open + 2 // '{' + 2 is '}', '[' + 2 is ']'
		c.I++
		if c.next(closer) {
			return true
		}
		for {
			if open == '{' && (!c.compactString() || !c.next(':')) || !c.value(depth+1) {
				return false
			}
			if c.next(closer) {
				return true
			}
			if !c.next(',') {
				return false
			}
		}
	case 't':
		return c.Lit("true")
	case 'f':
		return c.Lit("false")
	case 'n':
		return c.Lit("null")
	}
	return c.number()
}

// compactByte marks the bytes a compact value's string carries with no
// further look: a plain string's, and every byte above 0x7e but 0xE2,
// which starts U+2028 and U+2029.
var compactByte = func() (t [256]bool) {
	for c := range t {
		t[c] = plainByte[c] || c >= 0x7f && c != 0xe2
	}
	return t
}()

// compactString consumes a valid string holding no byte json.Marshal
// would escape.
func (c *Cursor[S]) compactString() bool {
	if !c.next('"') {
		return false
	}
	s, i := c.S, c.I
	for ; i < len(s); i++ {
		if compactByte[s[i]] {
			continue
		}
		switch s[i] {
		case '"':
			c.I = i + 1
			return true
		case '\\':
			i++
			switch {
			case i < len(s) && strings.IndexByte(`"\/bfnrt`, s[i]) >= 0:
			case i+4 < len(s) && s[i] == 'u' && isHex(s[i+1]) && isHex(s[i+2]) && isHex(s[i+3]) && isHex(s[i+4]):
				i += 4
			default:
				return false
			}
		case 0xe2:
			if i+2 < len(s) && s[i+1] == 0x80 && s[i+2]&^1 == 0xa8 {
				return false
			}
		default:
			return false
		}
	}
	return false
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// digits consumes a run of digits and returns its length.
func (c *Cursor[S]) digits() int {
	start := c.I
	for c.I < len(c.S) && isDigit(c.S[c.I]) {
		c.I++
	}
	return c.I - start
}

// number consumes a JSON number.
func (c *Cursor[S]) number() bool {
	c.next('-')
	if !c.next('0') && c.digits() == 0 ||
		c.next('.') && c.digits() == 0 {
		return false
	}
	if c.next('e') || c.next('E') {
		_ = c.next('+') || c.next('-')
		return c.digits() > 0
	}
	return true
}
