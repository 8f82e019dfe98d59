package script

import (
	"repro/internal/jsonshape"
	"repro/internal/slab"
)

// The program literal has one shape: the one encoding/json gives a
// Program — {"ops":[…]} with every field in declaration order, empty
// ones omitted, no whitespace — over package jsonshape's plain strings.
// The encoder and the cursor decoder below walk exactly that shape.
// Anything else — and they say so rather than guess — is left to
// encoding/json by Encode and Decode, so for every input the bytes and
// the decoded programs are the standard library's
// (FuzzProgramCodecMatchesJSON).

// enc appends the literal.
type enc struct{ jsonshape.Writer }

func (e *enc) program(p *Program) {
	if p.Ops == nil {
		e.Lit(`{"ops":null}`)
		return
	}
	e.Lit(`{"ops":[`)
	for i := range p.Ops {
		op := &p.Ops[i]
		if i > 0 {
			e.Lit(",")
		}
		e.Str(`{"do":`, op.Do)
		if op.URL != "" {
			e.Str(`,"url":`, op.URL)
		}
		if len(op.Send) > 0 {
			e.Lit(`,"send":[`)
			for j := range op.Send {
				if j > 0 {
					e.Lit(",")
				}
				e.spec(&op.Send[j])
			}
			e.Lit("]")
		}
		if op.Expect != 0 {
			e.Int(`,"expect":`, op.Expect)
		}
		if op.SendCookie {
			e.Lit(`,"sendCookie":true`)
		}
		e.Lit("}")
	}
	e.Lit("]}")
}

func (e *enc) spec(m *MessageSpec) {
	e.Lit("{")
	sep := ""
	if len(m.Kinds) > 0 {
		e.Strs(`"kinds":`, m.Kinds)
		sep = ","
	}
	if m.Binary {
		e.Lit(sep)
		e.Lit(`"binary":true`)
		sep = ","
	}
	if m.Text != "" {
		e.Lit(sep)
		e.Str(`"text":`, m.Text)
	}
	e.Lit("}")
}

// cursor walks a program literal; the strings it returns alias the
// literal unless they carried an escape. With a scratch, the program and
// its lists come from the scratch's slabs and escaped strings from its
// text; without one, each is an allocation of its own.
type cursor struct {
	jsonshape.Cursor[string]
	s    *Scratch
	text *slab.Text // s's text; nil without a scratch
}

// decodeFast decodes lit if it has the encoder's shape.
func decodeFast(lit string, s *Scratch) (*Program, bool) {
	c := &cursor{Cursor: jsonshape.Cursor[string]{S: lit}, s: s}
	var p *Program
	var mk func(int) []Op
	if s != nil {
		p, c.text, mk = s.progs.New(), &s.text, s.ops.Make
	} else {
		p = &Program{}
	}
	switch {
	case lit == `{"ops":null}`:
		return p, true
	case lit == `{"ops":[]}`:
		p.Ops = []Op{}
		return p, true
	case !c.Lit(`{"ops":[`):
		return nil, false
	}
	var ok bool
	if p.Ops, ok = jsonshape.List(&c.Cursor, mk, c.op); !ok || !c.Lit("}") || !c.Done() {
		return nil, false
	}
	return p, true
}

// str consumes a plain string into dst.
func (c *cursor) str(dst *string) bool { return c.Str(dst, c.text) }

func (c *cursor) op(o *Op) bool {
	if !c.Lit(`{"do":`) || !c.str(&o.Do) {
		return false
	}
	if c.Lit(`,"url":`) && !c.str(&o.URL) {
		return false
	}
	if c.Lit(`,"send":[`) {
		var mk func(int) []MessageSpec
		if c.s != nil {
			mk = c.s.specs.Make
		}
		var ok bool
		if o.Send, ok = jsonshape.List(&c.Cursor, mk, c.spec); !ok {
			return false
		}
	}
	// The cursor takes an Expect of 1–999999999, the counts programs
	// carry; any other is left to encoding/json.
	if c.Lit(`,"expect":`) && (!c.Int(&o.Expect) || o.Expect < 1 || o.Expect > 999999999) {
		return false
	}
	if c.Lit(`,"sendCookie":true`) {
		o.SendCookie = true
	}
	return c.Lit("}")
}

func (c *cursor) spec(m *MessageSpec) bool {
	if !c.Lit("{") {
		return false
	}
	sep := "" // "," once the object has a member
	if c.Lit(`"kinds":[`) {
		var mk func(int) []string
		if c.s != nil {
			mk = c.s.kinds.Make
		}
		var ok bool
		if m.Kinds, ok = jsonshape.List(&c.Cursor, mk, c.str); !ok {
			return false
		}
		sep = ","
	}
	if c.Lit(sep + `"binary":true`) {
		m.Binary, sep = true, ","
	}
	if c.Lit(sep+`"text":`) && !c.str(&m.Text) {
		return false
	}
	return c.Lit("}")
}
