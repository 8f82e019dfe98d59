// Package script defines the behaviour DSL embedded in the synthetic
// web's JavaScript files.
//
// The paper's inclusion trees only need to know which resource caused
// which request, so instead of a JavaScript VM the synthetic browser
// executes small declarative programs carried inside otherwise ordinary
// .js bodies. Each program is a list of operations — include another
// script, open a WebSocket and exchange messages, load an image, fire an
// XHR beacon, insert an iframe — that reproduce the dynamic inclusion
// chains (publisher script → ad network script → tracker WebSocket) the
// paper attributes.
//
// A program travels as a marker comment plus a JSON literal:
//
//	/* wsrepro-script v1 */
//	var __program = {"ops":[{"do":"open_websocket","url":"ws://..."}]};
//
// so the wire format still looks like JavaScript to the HTTP layer and
// content classifiers.
package script

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"repro/internal/jsonshape"
	"repro/internal/slab"
)

// Marker identifies script bodies that carry a program.
const Marker = "/* wsrepro-script v1 */"

// Op kinds.
const (
	OpIncludeScript = "include_script"
	OpOpenWebSocket = "open_websocket"
	OpLoadImage     = "load_image"
	OpHTTPBeacon    = "http_beacon"
	OpInsertIframe  = "insert_iframe"
)

// MessageSpec describes one WebSocket message (or HTTP beacon body) the
// executing script sends. Kinds name the data categories from the paper's
// Table 5 ("ua", "cookie", "ip", "userid", "device", "screen", "browser",
// "viewport", "scroll", "orientation", "firstseen", "resolution",
// "language", "dom", "binary"); the browser's payload synthesizer turns
// them into realistic content.
type MessageSpec struct {
	// Kinds lists the data categories bundled into this message.
	Kinds []string `json:"kinds,omitempty"`
	// Binary requests a binary (opcode 2) frame.
	Binary bool `json:"binary,omitempty"`
	// Text carries verbatim content instead of synthesized kinds.
	Text string `json:"text,omitempty"`
}

// Op is one operation of a program.
type Op struct {
	// Do selects the operation kind.
	Do string `json:"do"`
	// URL is the operation's target (script/image/beacon/iframe URL or
	// ws:// endpoint).
	URL string `json:"url,omitempty"`
	// Send lists messages to send after a WebSocket opens (or the body
	// of an http_beacon).
	Send []MessageSpec `json:"send,omitempty"`
	// Expect is the number of server messages to read before closing a
	// WebSocket.
	Expect int `json:"expect,omitempty"`
	// SendCookie asks the browser to attach its cookie for the target
	// domain to the request or handshake.
	SendCookie bool `json:"sendCookie,omitempty"`
}

// Program is an executable script behaviour.
type Program struct {
	Ops []Op `json:"ops"`
}

// Validate checks structural invariants: known op kinds, URLs present
// where required, WebSocket ops targeting ws/wss URLs.
func (p *Program) Validate() error {
	for i, op := range p.Ops {
		switch op.Do {
		case OpIncludeScript, OpLoadImage, OpHTTPBeacon, OpInsertIframe:
			if op.URL == "" {
				return fmt.Errorf("script: op %d (%s): missing url", i, op.Do)
			}
		case OpOpenWebSocket:
			if op.URL == "" {
				return fmt.Errorf("script: op %d (%s): missing url", i, op.Do)
			}
			if !strings.HasPrefix(op.URL, "ws://") && !strings.HasPrefix(op.URL, "wss://") {
				return fmt.Errorf("script: op %d: open_websocket url %q is not ws/wss", i, op.URL)
			}
		default:
			return fmt.Errorf("script: op %d: unknown kind %q", i, op.Do)
		}
	}
	return nil
}

// assign introduces the program literal in a body; prologue and
// epilogue are the camouflage boilerplate around it, so content
// classifiers see realistic scripts.
const (
	assign   = "var __program = "
	prologue = Marker + "\n(function(){\"use strict\";\n" + assign
	epilogue = ";\n__run(__program);\n})();\n"
)

// Encode renders the program as a JavaScript-looking body. The literal
// is encoding/json's rendering of p, byte for byte; programs of plain
// strings are appended by hand (codec.go) and anything else goes
// through json.Marshal itself. The body is rendered in a pooled buffer
// and returned as a copy of its own length: a served body is kept for
// its page's life, so room to spare would be kept with it.
func (p *Program) Encode() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	buf, _ := encodeBufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	defer encodeBufs.Put(buf)
	e := enc{jsonshape.Writer{B: (*buf)[:0]}}
	e.Lit(prologue)
	if e.program(p); e.Bad {
		data, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("script: encode: %w", err)
		}
		e.B = append(e.B[:len(prologue)], data...)
	}
	e.Lit(epilogue)
	if cap(e.B) <= maxEncodeBuf {
		*buf = e.B
	}
	return bytes.Clone(e.B), nil
}

// encodeBufs recycles Encode's buffers; one that grew past maxEncodeBuf
// is dropped rather than kept.
var encodeBufs sync.Pool

const maxEncodeBuf = 64 << 10

// MustEncode is Encode, panicking on error; for generator tables.
func (p *Program) MustEncode() []byte {
	b, err := p.Encode()
	if err != nil {
		panic(err)
	}
	return b
}

// Decode extracts and validates the program from a script body. Bodies
// without the marker yield (nil, nil): they are plain scripts with no
// behaviour, which is not an error. A literal in the encoder's own
// shape is walked in place and its strings alias body; any other goes
// through json.Unmarshal, with the same result for every input.
func Decode(body string) (*Program, error) { return decode(body, nil) }

// Scratch is storage programs are decoded into, for a caller that
// decodes many: a program, its ops, message specs and kind lists come
// from slabs that Reset recycles, and the strings that carried an
// escape — the & of every URL with a query — from chunks that are never
// rewritten (slab.Text). A program decoded into a scratch is valid until
// the scratch's next Reset; decoding another leaves it as it was. Its
// strings stay valid for as long as they are held. A Scratch is not safe
// for concurrent use; its zero value is ready to use.
type Scratch struct {
	progs slab.Slab[Program]
	ops   slab.Slab[Op]
	specs slab.Slab[MessageSpec]
	kinds slab.Slab[string]
	text  slab.Text
}

// Decode is the package's Decode, with the program held by s.
func (s *Scratch) Decode(body string) (*Program, error) { return decode(body, s) }

// Reset takes back every program decoded into s since the last Reset.
func (s *Scratch) Reset() {
	s.progs.Reset()
	s.ops.Reset()
	s.specs.Reset()
	s.kinds.Reset()
}

// decode is Decode, into s when s is not nil.
func decode(body string, s *Scratch) (*Program, error) {
	if !strings.Contains(body, Marker) {
		return nil, nil
	}
	i := strings.Index(body, assign)
	if i < 0 {
		return nil, fmt.Errorf("script: marker present but no program assignment")
	}
	rest := body[i+len(assign):]
	end := strings.Index(rest, ";\n")
	if end < 0 {
		return nil, fmt.Errorf("script: unterminated program literal")
	}
	p, ok := decodeFast(rest[:end], s)
	if !ok {
		p = &Program{}
		if err := json.Unmarshal([]byte(rest[:end]), p); err != nil {
			return nil, fmt.Errorf("script: decode program: %w", err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Include returns an include_script op.
func Include(url string) Op { return Op{Do: OpIncludeScript, URL: url} }

// Image returns a load_image op.
func Image(url string) Op { return Op{Do: OpLoadImage, URL: url} }
