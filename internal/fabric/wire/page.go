package wire

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/jsonshape"
)

// The page frame is the hot frame of the protocol — one per crawled
// page — and has one shape: the one encoding/json gives it,
//
//	{"v":1,"type":"page","page":{"batch":B,"site":S,"line":L}}
//
// with B and S plain strings and L a compact value (package jsonshape),
// which json copies unchanged both ways. Encode writes that shape by
// hand when B, S and L qualify, and Decode cuts L out of a frame of that
// shape after one scan of it; every other page and frame goes through
// encoding/json, so the bytes and the frames accepted are the standard
// library's (FuzzWireDecode).

// pagePrefix opens every page frame of this version.
var pagePrefix = fmt.Sprintf(`{"v":%d,"type":%q,"page":{"batch":`, Version, TypePage)

// encodePage renders p's frame, or reports false. The frame is sized
// for B and S without escapes, which crawl batch ids and domains never
// need: one allocation.
func encodePage(p *Page) ([]byte, bool) {
	if !jsonshape.Compact(p.Line) {
		return nil, false
	}
	w := jsonshape.Writer{B: make([]byte, 0, len(pagePrefix)+len(p.Batch)+len(p.Site)+len(p.Line)+len(`"","site":"","line":}}`))}
	w.Str(pagePrefix, p.Batch)
	w.Str(`,"site":`, p.Site)
	w.Lit(`,"line":`)
	return append(append(w.B, p.Line...), "}}"...), !w.Bad
}

// decodePage decodes data if it is a page frame of the encoder's shape.
func decodePage(data []byte) (*Page, bool) {
	if !bytes.HasSuffix(data, []byte("}}")) {
		return nil, false
	}
	c := jsonshape.Cursor[[]byte]{S: data[:len(data)-2]}
	p := &Page{}
	if !c.Lit(pagePrefix) || !c.Str(&p.Batch) || !c.Lit(`,"site":`) || !c.Str(&p.Site) ||
		!c.Lit(`,"line":`) || !jsonshape.Compact(c.S[c.I:]) {
		return nil, false
	}
	p.Line = append(json.RawMessage(nil), c.S[c.I:]...)
	return p, true
}
