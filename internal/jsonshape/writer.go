// Package jsonshape owns the one JSON shape the hand codecs (the script
// literal, the spool line and the page frame) read and write: the exact
// bytes encoding/json gives over "plain" strings (printable ASCII, with
// json's \u0026 \u003c \u003e escapes for & < > and no other escape),
// canonical ints, and compact values holding nothing json would escape.
// Each codec walks its own schema over these primitives and leaves any
// other value to encoding/json, so for every input its bytes and decoded
// values are the standard library's (FuzzProgramCodecMatchesJSON,
// FuzzSpoolCodecMatchesJSON, FuzzWireDecode). Indent, the query
// service's indenter, is held to json.Indent the same way
// (FuzzIndentMatchesStdlib).
package jsonshape

import "strconv"

// plainByte marks the printable ASCII bytes a plain string carries
// verbatim.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\' && c != '&' && c != '<' && c != '>'
	}
	return t
}()

// Writer appends a value of a codec's shape. Each method but Lit appends
// pre, the literal the shape puts before the value (a key, a separator),
// and then the value. Bad is set once a string is not plain; B is then
// the caller's to drop.
type Writer struct {
	B   []byte
	Bad bool
}

// Lit appends l.
func (w *Writer) Lit(l string) { w.B = append(w.B, l...) }

// Str appends pre and s quoted.
func (w *Writer) Str(pre, s string) {
	const hex = "0123456789abcdef"
	b := append(append(w.B, pre...), '"')
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case plainByte[c]:
		case c == '&' || c == '<' || c == '>':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			start = i + 1
		default:
			w.B, w.Bad = b, true
			return
		}
	}
	w.B = append(append(b, s[start:]...), '"')
}

// Strs appends pre and a list; nil is null, as json has it.
func (w *Writer) Strs(pre string, v []string) {
	w.B = append(w.B, pre...)
	if v == nil {
		w.B = append(w.B, "null"...)
		return
	}
	sep := "["
	for _, s := range v {
		w.Str(sep, s)
		sep = ","
	}
	if len(v) == 0 {
		w.B = append(w.B, '[')
	}
	w.B = append(w.B, ']')
}

// Int appends pre and n.
func (w *Writer) Int(pre string, n int) {
	w.B = strconv.AppendInt(append(w.B, pre...), int64(n), 10)
}

// Bool appends pre and v.
func (w *Writer) Bool(pre string, v bool) {
	w.B = strconv.AppendBool(append(w.B, pre...), v)
}
