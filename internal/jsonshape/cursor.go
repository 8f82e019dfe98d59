package jsonshape

import (
	"unsafe"

	"repro/internal/slab"
)

// Cursor walks input of a codec's shape. Every method reports false at
// the first byte outside the shape, which ends the walk (only a failed
// Lit or next leaves I where it was). Over a string, Str hands out
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

// digits consumes a run of digits and returns its length.
func (c *Cursor[S]) digits() int {
	start := c.I
	for c.I < len(c.S) && c.S[c.I] >= '0' && c.S[c.I] <= '9' {
		c.I++
	}
	return c.I - start
}

// quoted consumes a plain string and returns its bytes as the input
// holds them, and how many escapes they include (unescape decodes them).
func (c *Cursor[S]) quoted() (raw S, escapes int, ok bool) {
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

// unescape decodes a string quoted returned with escapes > 0, whose
// escapes must all be one of the three.
func unescape[S ~string | ~[]byte](raw S, escapes int) (string, bool) {
	if len(raw) < 6*escapes {
		return "", false // an escape other than the three
	}
	b, ok := appendUnescaped(make([]byte, 0, len(raw)-5*escapes), raw, escapes)
	if !ok {
		return "", false
	}
	// b is this call's own and never written again: strings.Builder's
	// rule for its String.
	return unsafe.String(unsafe.SliceData(b), len(b)), true
}

// appendUnescaped appends unescape's string to dst.
func appendUnescaped[S ~string | ~[]byte](dst []byte, raw S, escapes int) ([]byte, bool) {
	if len(raw) < 6*escapes {
		return dst, false
	}
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			dst = append(dst, raw[i])
			continue
		}
		if len(raw)-i < 6 || string(raw[i:i+4]) != `\u00` {
			return dst, false
		}
		switch string(raw[i+4 : i+6]) {
		case "26":
			dst = append(dst, '&')
		case "3c":
			dst = append(dst, '<')
		case "3e":
			dst = append(dst, '>')
		default:
			return dst, false
		}
		i += 5
	}
	return dst, true
}

// Str consumes a plain string into dst. A string that carried escapes
// is built in t, or, when t is nil, in an allocation of its own.
func (c *Cursor[S]) Str(dst *string, t *slab.Text) bool {
	raw, escapes, ok := c.quoted()
	switch {
	case !ok:
		return false
	case escapes == 0:
		*dst = string(raw)
		return true
	case t == nil:
		*dst, ok = unescape(raw, escapes)
		return ok
	}
	b, ok := appendUnescaped(t.Grow(len(raw)-5*escapes), raw, escapes)
	if ok {
		*dst = t.Take(b)
	}
	return ok
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
// consumed, elem reading each member into place. Its storage holds
// Hint's count: from mk, which returns that many zero Ts — a slab's
// Make — or, when mk is nil, an allocation of its own. A list longer
// than that moves off it.
func List[T any, S ~string | ~[]byte](c *Cursor[S], mk func(n int) []T, elem func(*T) bool) ([]T, bool) {
	var out []T
	if mk != nil {
		out = mk(c.Hint())[:0]
	} else {
		out = make([]T, 0, c.Hint())
	}
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
