// Package htmlparse is a lightweight HTML tokenizer and tree builder that
// turns the synthetic web's pages into dom trees.
//
// It handles the constructs the generated pages use — nested elements,
// attributes (quoted and bare), void elements, comments, raw-text script
// and style bodies, doctype — and recovers from mild malformation
// (unclosed tags, stray close tags) the way the measurement pipeline
// needs: never failing, always producing a tree.
package htmlparse

import (
	"strings"

	"repro/internal/dom"
)

// Parse parses HTML source into a document node. Parsing is forgiving:
// unknown constructs become text, unclosed elements are closed at EOF.
func Parse(src string) *dom.Node {
	p := &parser{src: src}
	doc := p.node(dom.DocumentNode, "")
	p.parseChildren(doc, "")
	return doc
}

type parser struct {
	src string
	pos int
	// slab is the unused rest of the current chunk of nodes. A document's
	// nodes are allocated a chunk at a time and live exactly as long as
	// the document does: any node keeps its whole chunk reachable.
	slab []dom.Node
}

// bytesPerNode is how much source one node takes on the pages this
// parser meets (13 to 26 bytes; 16 on average), which sizes a chunk
// from the source still unparsed: one chunk for most documents, a small
// second one for the denser.
const bytesPerNode = 16

// node returns a node of the given type from the slab; data is the
// content of a text or comment node.
func (p *parser) node(typ dom.NodeType, data string) *dom.Node {
	if len(p.slab) == 0 {
		p.slab = make([]dom.Node, (len(p.src)-p.pos)/bytesPerNode+4)
	}
	n := &p.slab[0]
	p.slab = p.slab[1:]
	n.Type, n.Data = typ, data
	return n
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

// parseChildren parses content into parent until a matching close tag for
// enclosing (or EOF). Returns when the close tag has been consumed.
func (p *parser) parseChildren(parent *dom.Node, enclosing string) {
	for !p.eof() {
		if p.peek() != '<' {
			start := p.pos
			idx := strings.IndexByte(p.src[p.pos:], '<')
			if idx < 0 {
				p.pos = len(p.src)
			} else {
				p.pos += idx
			}
			text := p.src[start:p.pos]
			if strings.TrimSpace(text) != "" || parent.Type != dom.DocumentNode {
				parent.AppendChild(p.node(dom.TextNode, dom.UnescapeText(text)))
			}
			continue
		}
		// At '<'.
		rest := p.src[p.pos:]
		switch {
		case strings.HasPrefix(rest, "<!--"):
			end := strings.Index(rest[4:], "-->")
			if end < 0 {
				parent.AppendChild(p.node(dom.CommentNode, rest[4:]))
				p.pos = len(p.src)
				return
			}
			parent.AppendChild(p.node(dom.CommentNode, rest[4:4+end]))
			p.pos += 4 + end + 3
		case strings.HasPrefix(rest, "<!"):
			// Doctype or other declaration: skip to '>'.
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += end + 1
		case strings.HasPrefix(rest, "</"):
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			name := strings.ToLower(strings.TrimSpace(rest[2:end]))
			p.pos += end + 1
			if name == enclosing {
				return
			}
			// Stray close tag: ignore it (recovery).
		default:
			el, selfClose := p.parseOpenTag()
			if el == nil {
				// Bare '<' treated as text.
				parent.AppendChild(p.node(dom.TextNode, "<"))
				p.pos++
				continue
			}
			parent.AppendChild(el)
			if selfClose || dom.IsVoidElement(el.Tag) {
				continue
			}
			if el.Tag == "script" || el.Tag == "style" {
				p.parseRawText(el, el.Tag)
				continue
			}
			p.parseChildren(el, el.Tag)
		}
	}
}

// parseRawText consumes raw text until the matching close tag.
func (p *parser) parseRawText(el *dom.Node, tag string) {
	idx := indexCloseTag(p.src[p.pos:], tag)
	if idx < 0 {
		if p.pos < len(p.src) {
			el.AppendChild(p.node(dom.TextNode, p.src[p.pos:]))
		}
		p.pos = len(p.src)
		return
	}
	if idx > 0 {
		el.AppendChild(p.node(dom.TextNode, p.src[p.pos:p.pos+idx]))
	}
	p.pos += idx
	end := strings.IndexByte(p.src[p.pos:], '>')
	if end < 0 {
		p.pos = len(p.src)
		return
	}
	p.pos += end + 1
}

// indexCloseTag returns the index in s of the first "</" followed by
// tag (lower case) in any ASCII case, or -1. Only ASCII folds, as HTML
// prescribes for tag names, and the search runs over s itself: a
// lower-cased copy can differ from s in byte length (U+023A is 2 bytes,
// its lower case 3), so an index into one is not an index into the other.
func indexCloseTag(s, tag string) int {
	for from := 0; ; {
		i := strings.Index(s[from:], "</")
		if i < 0 {
			return -1
		}
		from += i + 2
		if hasPrefixFold(s[from:], tag) {
			return from - 2
		}
	}
}

func hasPrefixFold(s, lower string) bool {
	if len(s) < len(lower) {
		return false
	}
	for i := 0; i < len(lower); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// parseOpenTag parses "<tag attr=val ...>" starting at p.pos (which points
// at '<') into a new element, setting each attribute as it is read: a
// repeated name keeps its last value. Returns nil if this is not a
// well-formed open tag.
func (p *parser) parseOpenTag() (el *dom.Node, selfClose bool) {
	i := p.pos + 1
	start := i
	for i < len(p.src) && isNameByte(p.src[i]) {
		i++
	}
	if i == start {
		return nil, false
	}
	el = p.node(dom.ElementNode, "")
	el.Tag = strings.ToLower(p.src[start:i])
	for {
		for i < len(p.src) && isSpace(p.src[i]) {
			i++
		}
		if i >= len(p.src) {
			p.pos = i
			return el, false
		}
		switch p.src[i] {
		case '>':
			p.pos = i + 1
			return el, false
		case '/':
			i++
			if i < len(p.src) && p.src[i] == '>' {
				p.pos = i + 1
				return el, true
			}
			continue
		}
		// Attribute name; SetAttr lower-cases it.
		nameStart := i
		for i < len(p.src) && p.src[i] != '=' && p.src[i] != '>' && p.src[i] != '/' && !isSpace(p.src[i]) {
			i++
		}
		name := p.src[nameStart:i]
		if name == "" {
			i++ // skip junk byte
			continue
		}
		for i < len(p.src) && isSpace(p.src[i]) {
			i++
		}
		if i >= len(p.src) || p.src[i] != '=' {
			el.SetAttr(name, "") // bare attribute
			continue
		}
		i++ // consume '='
		for i < len(p.src) && isSpace(p.src[i]) {
			i++
		}
		if i >= len(p.src) {
			el.SetAttr(name, "")
			p.pos = i
			return el, false
		}
		var val string
		if q := p.src[i]; q == '"' || q == '\'' {
			i++
			valStart := i
			for i < len(p.src) && p.src[i] != q {
				i++
			}
			val = p.src[valStart:i]
			if i < len(p.src) {
				i++ // closing quote
			}
		} else {
			valStart := i
			for i < len(p.src) && !isSpace(p.src[i]) && p.src[i] != '>' {
				i++
			}
			val = p.src[valStart:i]
		}
		el.SetAttr(name, dom.UnescapeText(val))
	}
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
