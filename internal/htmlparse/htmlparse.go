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
	"repro/internal/slab"
)

// Arena is the storage documents are parsed into: their nodes and the
// elements' attribute lists come from slabs that Reset recycles, so a
// browser that parses every page into one arena allocates nothing for a
// page's DOM once the arena has grown to its pages. A document parsed
// into an arena is valid until the arena's next Reset. An Arena is not
// safe for concurrent use; its zero value is ready to use.
type Arena struct {
	nodes slab.Slab[dom.Node]
	attrs slab.Slab[dom.Attribute]
	// tag gathers one open tag's attributes, with SetAttr's rules,
	// before they move to attrs.
	tag dom.Node
	// text holds the text and attribute values that had an entity to
	// rewrite; every other string of a document is a substring of its
	// source. Its chunks are never rewritten, not even after Reset: a
	// value read from a document, a link's href, may outlive it.
	text slab.Text
}

// Reset takes back every node and attribute list handed out since the
// last Reset: the documents parsed into the arena are invalid after it.
func (a *Arena) Reset() {
	a.nodes.Reset()
	a.attrs.Reset()
}

// Parse parses HTML source into a document node held by the arena.
// Parsing is forgiving: unknown constructs become text, unclosed
// elements are closed at EOF.
func (a *Arena) Parse(src string) *dom.Node {
	p := parser{src: src, arena: a}
	doc := p.node(dom.DocumentNode, "")
	p.parseChildren(doc, "")
	return doc
}

// Parse parses HTML source into a document node of its own: Arena.Parse
// on a fresh arena.
func Parse(src string) *dom.Node { return new(Arena).Parse(src) }

type parser struct {
	src   string
	pos   int
	arena *Arena
}

// node returns a node of the given type from the arena; data is the
// content of a text or comment node.
func (p *parser) node(typ dom.NodeType, data string) *dom.Node {
	n := p.arena.nodes.New()
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
				parent.AppendChild(p.node(dom.TextNode, p.unescape(text)))
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
// at '<') into a new element. Returns nil if this is not a well-formed
// open tag.
func (p *parser) parseOpenTag() (el *dom.Node, selfClose bool) {
	tag := &p.arena.tag
	el, selfClose = p.scanOpenTag(tag)
	if n := len(tag.Attrs); n > 0 {
		el.Attrs = p.arena.attrs.Make(n)
		copy(el.Attrs, tag.Attrs)
		clear(tag.Attrs)
		tag.Attrs = tag.Attrs[:0]
	}
	return el, selfClose
}

// scanOpenTag is parseOpenTag's scan. It sets each attribute on tag as
// it is read, so a repeated name keeps its last value.
func (p *parser) scanOpenTag(tag *dom.Node) (el *dom.Node, selfClose bool) {
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
			tag.SetAttr(name, "") // bare attribute
			continue
		}
		i++ // consume '='
		for i < len(p.src) && isSpace(p.src[i]) {
			i++
		}
		if i >= len(p.src) {
			tag.SetAttr(name, "")
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
		tag.SetAttr(name, p.unescape(val))
	}
}

// unescape reverses s's entity encoding, building a rewritten string in
// the arena's text.
func (p *parser) unescape(s string) string {
	if !dom.HasEntity(s) {
		return s
	}
	t := &p.arena.text
	return t.Take(dom.AppendUnescaped(t.Grow(len(s)), s))
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
