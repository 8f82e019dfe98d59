package jsonshape

import "strings"

// Cursor walks input of a codec's shape. Every method reports false at
// the first byte outside the shape, which ends the walk (only a failed
// Lit, next or Bool leaves I where it was). Over a string, Str hands out
// substrings of the input; over a []byte, copies, which keep no part of
// the input alive.
type Cursor[S ~string | ~[]byte] struct {
	S S   // the input
	I int // the next byte to read
}

// Lit consumes l.
func (c *Cursor[S]) Lit(l string) bool {
	if len(c.S)-c.I < len(l) || string(c.S[c.I:c.I+len(l)]) != l {
		return false
	}
	c.I += len(l)
	return true
}

// next consumes the byte b.
func (c *Cursor[S]) next(b byte) bool {
	if c.I < len(c.S) && c.S[c.I] == b {
		c.I++
		return true
	}
	return false
}

// Done reports whether the whole input has been read.
func (c *Cursor[S]) Done() bool { return c.I == len(c.S) }

// Quoted consumes a plain string and returns its bytes as the input
// holds them, and how many escapes they include (Unescape decodes them).
func (c *Cursor[S]) Quoted() (raw S, escapes int, ok bool) {
	if !c.next('"') {
		return raw, 0, false
	}
	start := c.I
	for ; c.I < len(c.S) && c.S[c.I] != '"'; c.I++ {
		switch b := c.S[c.I]; {
		case b == '\\':
			escapes++
		case b < 0x20 || b > 0x7e:
			return raw, 0, false
		}
	}
	if c.Done() {
		return raw, 0, false
	}
	c.I++
	return c.S[start : c.I-1], escapes, true
}

// Unescape decodes a string Quoted returned with escapes > 0, whose
// escapes must all be one of the three.
func Unescape[S ~string | ~[]byte](raw S, escapes int) (string, bool) {
	if len(raw) < 6*escapes {
		return "", false // an escape other than the three
	}
	var sb strings.Builder
	sb.Grow(len(raw) - 5*escapes)
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			sb.WriteByte(raw[i])
			continue
		}
		if len(raw)-i < 6 || string(raw[i:i+4]) != `\u00` {
			return "", false
		}
		switch string(raw[i+4 : i+6]) {
		case "26":
			sb.WriteByte('&')
		case "3c":
			sb.WriteByte('<')
		case "3e":
			sb.WriteByte('>')
		default:
			return "", false
		}
		i += 5
	}
	return sb.String(), true
}

// Str consumes a plain string into dst.
func (c *Cursor[S]) Str(dst *string) bool {
	raw, escapes, ok := c.Quoted()
	switch {
	case !ok:
		return false
	case escapes > 0:
		*dst, ok = Unescape(raw, escapes)
		return ok
	}
	*dst = string(raw)
	return true
}

// Int consumes an int in canonical form (no leading zero, no "-0") of at
// most 18 digits, which cannot overflow an int64.
func (c *Cursor[S]) Int(dst *int) bool {
	neg := c.Lit("-")
	start := c.I
	if n := c.digits(); n == 0 || n > 18 || c.S[start] == '0' && (n > 1 || neg) {
		return false
	}
	var v int64
	for i := start; i < c.I; i++ {
		v = v*10 + int64(c.S[i]-'0')
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

// Bool consumes true or false.
func (c *Cursor[S]) Bool(dst *bool) bool {
	switch {
	case c.Lit("true"):
		*dst = true
	case c.Lit("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// maxHint caps Hint: a hostile run of commas must not buy an allocation
// in proportion to them before the cursor declines it.
const maxHint = 32

// Hint sizes the array or object whose opening bracket has been
// consumed: its member count, from its top-level commas, up to maxHint.
// The count is exact for every input a codec goes on to accept: no
// accepted string holds a quote.
func (c *Cursor[S]) Hint() int {
	n, depth := 1, 0
	for i := c.I; i < len(c.S) && n < maxHint; i++ {
		switch c.S[i] {
		case '"':
			for i++; i < len(c.S) && c.S[i] != '"'; i++ {
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return n
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
	}
	return n
}

// List decodes the rest of a non-empty array whose '[' has been
// consumed, elem reading each member into place; its capacity is Hint's.
func List[T any, S ~string | ~[]byte](c *Cursor[S], elem func(*T) bool) ([]T, bool) {
	out := make([]T, 0, c.Hint())
	for {
		var zero T
		out = append(out, zero)
		if !elem(&out[len(out)-1]) {
			return nil, false
		}
		if c.next(']') {
			return out, true
		}
		if !c.next(',') {
			return nil, false
		}
	}
}
