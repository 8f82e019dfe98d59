package script

import (
	"strconv"
	"strings"
)

// The program literal has one shape: the one encoding/json gives a
// Program — {"ops":[…]} with every field in declaration order, empty
// ones omitted, no whitespace. The encoder and the cursor decoder below
// handle exactly that shape over "plain" strings (printable ASCII, with
// json's \u0026 \u003c \u003e escapes for & < > and no other escape).
// Anything else — and they say so rather than guess — is left to
// encoding/json by Encode and Decode, so for every input the bytes and
// the decoded programs are the standard library's
// (FuzzProgramCodecMatchesJSON).

// enc appends the literal; bad is set when a string is not plain.
type enc struct {
	b   []byte
	bad bool
}

func (e *enc) lit(s string) { e.b = append(e.b, s...) }

func (e *enc) str(s string) {
	const hex = "0123456789abcdef"
	e.b = append(e.b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '&' || c == '<' || c == '>':
			e.b = append(e.b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		case c < 0x20 || c > 0x7e || c == '"' || c == '\\':
			e.bad = true
			return
		default:
			e.b = append(e.b, c)
		}
	}
	e.b = append(e.b, '"')
}

func (e *enc) program(p *Program) {
	if p.Ops == nil {
		e.lit(`{"ops":null}`)
		return
	}
	e.lit(`{"ops":[`)
	for i := range p.Ops {
		op := &p.Ops[i]
		if i > 0 {
			e.lit(",")
		}
		e.lit(`{"do":`)
		e.str(op.Do)
		if op.URL != "" {
			e.lit(`,"url":`)
			e.str(op.URL)
		}
		if len(op.Send) > 0 {
			e.lit(`,"send":[`)
			for j := range op.Send {
				if j > 0 {
					e.lit(",")
				}
				e.spec(&op.Send[j])
			}
			e.lit("]")
		}
		if op.Expect != 0 {
			e.lit(`,"expect":`)
			e.b = strconv.AppendInt(e.b, int64(op.Expect), 10)
		}
		if op.SendCookie {
			e.lit(`,"sendCookie":true`)
		}
		e.lit("}")
	}
	e.lit("]}")
}

func (e *enc) spec(m *MessageSpec) {
	e.lit("{")
	sep := ""
	if len(m.Kinds) > 0 {
		e.lit(`"kinds":[`)
		for k, kind := range m.Kinds {
			if k > 0 {
				e.lit(",")
			}
			e.str(kind)
		}
		e.lit("]")
		sep = ","
	}
	if m.Binary {
		e.lit(sep)
		e.lit(`"binary":true`)
		sep = ","
	}
	if m.Text != "" {
		e.lit(sep)
		e.lit(`"text":`)
		e.str(m.Text)
	}
	e.lit("}")
}

// sizeHint is about the length of p's encoded body: keys, punctuation
// and a few escapes per op, a typical kinds list per message. Falling
// short only costs Encode a regrow.
func (p *Program) sizeHint() int {
	n := len(prologue) + len(epilogue)
	for i := range p.Ops {
		n += 80 + len(p.Ops[i].URL) + 64*len(p.Ops[i].Send)
	}
	return n
}

// cursor walks a program literal. Every method reports false at the
// first byte outside the shape; strings it returns alias the literal
// unless they carried an escape.
type cursor struct {
	s string
	i int
}

// decodeFast decodes lit if it has the encoder's shape.
func decodeFast(lit string) (*Program, bool) {
	c := cursor{s: lit}
	p := &Program{}
	switch {
	case lit == `{"ops":null}`:
		return p, true
	case lit == `{"ops":[]}`:
		p.Ops = []Op{}
		return p, true
	case !c.lit(`{"ops":[`):
		return nil, false
	}
	var ok bool
	if p.Ops, ok = list(&c, (*cursor).op); !ok || !c.lit("}") || c.i != len(lit) {
		return nil, false
	}
	return p, true
}

func (c *cursor) lit(l string) bool {
	if !strings.HasPrefix(c.s[c.i:], l) {
		return false
	}
	c.i += len(l)
	return true
}

// maxHint caps the size hint of a list: a body of commas must not buy an
// allocation in proportion to them before the cursor declines it.
const maxHint = 32

// list decodes the rest of a non-empty array (the encoder omits empty
// ones) whose '[' has been consumed, its capacity hinted by a count of
// its top-level commas up to maxHint. The count is exact for every
// literal the cursor goes on to accept: no accepted string holds a quote.
func list[T any](c *cursor, elem func(*cursor, *T) bool) ([]T, bool) {
	n, depth, quoted := 1, 0, false
count:
	for _, b := range []byte(c.s[c.i:]) {
		switch {
		case n == maxHint:
			break count
		case b == '"':
			quoted = !quoted
		case quoted:
		case b == '[' || b == '{':
			depth++
		case b == ']' || b == '}':
			if depth == 0 {
				break count
			}
			depth--
		case b == ',' && depth == 0:
			n++
		}
	}
	out := make([]T, 0, n)
	for {
		var zero T
		out = append(out, zero)
		if !elem(c, &out[len(out)-1]) {
			return nil, false
		}
		if c.lit("]") {
			return out, true
		}
		if !c.lit(",") {
			return nil, false
		}
	}
}

func (c *cursor) op(o *Op) bool {
	if !c.lit(`{"do":`) || !c.str(&o.Do) {
		return false
	}
	if c.lit(`,"url":`) && !c.str(&o.URL) {
		return false
	}
	if c.lit(`,"send":[`) {
		var ok bool
		if o.Send, ok = list(c, (*cursor).spec); !ok {
			return false
		}
	}
	if c.lit(`,"expect":`) && !c.posInt(&o.Expect) {
		return false
	}
	if c.lit(`,"sendCookie":true`) {
		o.SendCookie = true
	}
	return c.lit("}")
}

func (c *cursor) spec(m *MessageSpec) bool {
	if !c.lit("{") {
		return false
	}
	sep := "" // "," once the object has a member
	if c.lit(`"kinds":[`) {
		var ok bool
		if m.Kinds, ok = list(c, (*cursor).str); !ok {
			return false
		}
		sep = ","
	}
	if c.lit(sep + `"binary":true`) {
		m.Binary, sep = true, ","
	}
	if c.lit(sep+`"text":`) && !c.str(&m.Text) {
		return false
	}
	return c.lit("}")
}

// posInt accepts 1–999999999 in canonical form: what the encoder emits
// for an Expect it does not omit, with no overflow to think about.
func (c *cursor) posInt(dst *int) bool {
	start, n := c.i, 0
	for c.i < len(c.s) && c.i-start < 9 && c.s[c.i] >= '0' && c.s[c.i] <= '9' {
		n = n*10 + int(c.s[c.i]-'0')
		c.i++
	}
	*dst = n
	return c.i > start && c.s[start] != '0'
}

func (c *cursor) str(dst *string) bool {
	if !c.lit(`"`) {
		return false
	}
	// No accepted string holds a quote, so the next one closes it.
	end := strings.IndexByte(c.s[c.i:], '"')
	if end < 0 {
		return false
	}
	raw := c.s[c.i : c.i+end]
	c.i += end + 1
	escaped := false
	for i := 0; i < len(raw); i++ {
		switch b := raw[i]; {
		case b < 0x20 || b > 0x7e:
			return false
		case b == '\\':
			escaped = true
		}
	}
	if !escaped {
		*dst = raw
		return true
	}
	var b strings.Builder
	b.Grow(len(raw))
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			b.WriteByte(raw[i])
			continue
		}
		switch {
		case strings.HasPrefix(raw[i:], `\u0026`):
			b.WriteByte('&')
		case strings.HasPrefix(raw[i:], `\u003c`):
			b.WriteByte('<')
		case strings.HasPrefix(raw[i:], `\u003e`):
			b.WriteByte('>')
		default:
			return false
		}
		i += len(`\u0026`) - 1
	}
	*dst = b.String()
	return true
}
