package script

// The hand codec's two halves, for the tests that count how often they
// decline (the shipping Encode and Decode hide that behind the
// encoding/json fallback).

// FastDecode is decodeFast: ok is false when lit is outside its shape.
func FastDecode(lit string) (*Program, bool) { return decodeFast(lit, nil) }

// FastEncode renders p's literal by hand; ok is false when a string of
// p is not plain.
func FastEncode(p *Program) (lit []byte, ok bool) {
	var e enc
	e.program(p)
	return e.B, !e.Bad
}

// Assign is the text that introduces the literal in a body.
const Assign = assign
