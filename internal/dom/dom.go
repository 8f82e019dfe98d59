// Package dom models the Document Object Model used by the synthetic
// browser: a tree of element and text nodes with attribute access, tree
// traversal, query helpers, and HTML serialization.
//
// The paper contrasts the DOM tree (syntactic structure) with the
// inclusion tree (semantic resource-loading relationships, Figure 2); this
// package is the former. It is also the payload source for the paper's
// "DOM exfiltration" finding — session-replay scripts serialize the whole
// document and ship it over WebSockets, which the synthetic ecosystem
// reproduces by calling (*Node).OuterHTML on live pages.
package dom

import "strings"

// NodeType discriminates node kinds.
type NodeType int

// Node types.
const (
	ElementNode NodeType = iota
	TextNode
	CommentNode
	DocumentNode
)

// Node is a single DOM node. Element nodes have a Tag and Attrs; text and
// comment nodes carry Data.
type Node struct {
	Type NodeType
	// Tag is the lower-case element name (element nodes only).
	Tag string
	// Attrs holds element attributes: names lower-case and unique,
	// sorted, which is also the order OuterHTML writes them in. An
	// element has a handful at most, so lookups scan. Use Attr, SetAttr
	// and HasAttr; nothing outside this file depends on the layout.
	Attrs []Attribute
	// Data is the text content (text/comment nodes only).
	Data string

	Parent      *Node
	FirstChild  *Node
	LastChild   *Node
	NextSibling *Node
	PrevSibling *Node
}

// Attribute is one name="value" pair of an element.
type Attribute struct{ Name, Value string }

// Attr returns the value of the named attribute ("" when absent).
func (n *Node) Attr(name string) string {
	if i, ok := n.findAttr(strings.ToLower(name)); ok {
		return n.Attrs[i].Value
	}
	return ""
}

// SetAttr sets an attribute on an element node; setting a name again
// replaces its value.
func (n *Node) SetAttr(name, value string) *Node {
	name = strings.ToLower(name)
	i, ok := n.findAttr(name)
	if !ok {
		n.Attrs = append(n.Attrs, Attribute{})
		copy(n.Attrs[i+1:], n.Attrs[i:])
		n.Attrs[i].Name = name
	}
	n.Attrs[i].Value = value
	return n
}

// HasAttr reports whether the attribute is present (even if empty).
//
//lint:allow unusedapi test oracle: htmlparse's attribute tests check parsed presence through it
func (n *Node) HasAttr(name string) bool {
	_, ok := n.findAttr(strings.ToLower(name))
	return ok
}

// findAttr returns the index of the attribute called name (lower-case)
// and true, or the index that keeps Attrs sorted if inserted and false.
func (n *Node) findAttr(name string) (int, bool) {
	for i := range n.Attrs {
		if n.Attrs[i].Name >= name {
			return i, n.Attrs[i].Name == name
		}
	}
	return len(n.Attrs), false
}

// AppendChild attaches c as the last child of n. It panics if c is already
// attached elsewhere (detach first) to catch tree-corruption bugs early.
func (n *Node) AppendChild(c *Node) *Node {
	if c.Parent != nil || c.PrevSibling != nil || c.NextSibling != nil {
		panic("dom: AppendChild of attached node")
	}
	c.Parent = n
	if n.LastChild == nil {
		n.FirstChild = c
		n.LastChild = c
		return n
	}
	c.PrevSibling = n.LastChild
	n.LastChild.NextSibling = c
	n.LastChild = c
	return n
}

// Walk visits n and every descendant in document order. Returning false
// from fn stops the walk.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// GetElementsByTag returns every descendant element with the given tag.
//
//lint:allow unusedapi test oracle: browser's and htmlparse's tests query parsed documents through it
func (n *Node) GetElementsByTag(tag string) []*Node {
	tag = strings.ToLower(tag)
	var out []*Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && c.Tag == tag {
			out = append(out, c)
		}
		return true
	})
	return out
}

// InnerText concatenates all descendant text nodes.
func (n *Node) InnerText() string {
	var b strings.Builder
	n.Walk(func(c *Node) bool {
		if c.Type == TextNode {
			b.WriteString(c.Data)
		}
		return true
	})
	return b.String()
}

// voidElements never have closing tags in HTML serialization.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// IsVoidElement reports whether tag is serialized without a closing tag.
func IsVoidElement(tag string) bool { return voidElements[strings.ToLower(tag)] }

// rawTextElements contain raw (unescaped) text content.
var rawTextElements = map[string]bool{"script": true, "style": true}

// OuterHTML serializes the subtree rooted at n as HTML. Attributes are
// emitted sorted by name (the order Attrs keeps), so serialization is
// deterministic.
func (n *Node) OuterHTML() string {
	var b strings.Builder
	n.writeHTML(&b)
	return b.String()
}

func (n *Node) writeHTML(b *strings.Builder) {
	switch n.Type {
	case DocumentNode:
		b.WriteString("<!DOCTYPE html>")
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			c.writeHTML(b)
		}
	case TextNode:
		if n.Parent != nil && n.Parent.Type == ElementNode && rawTextElements[n.Parent.Tag] {
			b.WriteString(n.Data)
		} else {
			b.WriteString(EscapeText(n.Data))
		}
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Tag)
		for _, a := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			b.WriteString(EscapeAttr(a.Value))
			b.WriteByte('"')
		}
		b.WriteByte('>')
		if voidElements[n.Tag] {
			return
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			c.writeHTML(b)
		}
		b.WriteString("</")
		b.WriteString(n.Tag)
		b.WriteByte('>')
	}
}

// The entity replacers are immutable after construction and safe for
// concurrent Replace calls; building them once at init (instead of per
// call) keeps the per-page parse path off the allocator — the per-call
// form was the single largest allocation site in the crawl profile.
var (
	escapeTextReplacer = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	escapeAttrReplacer = strings.NewReplacer("&", "&amp;", `"`, "&quot;", "<", "&lt;")
)

// EscapeText escapes text-node content for HTML.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "&<>") {
		return s
	}
	return escapeTextReplacer.Replace(s)
}

// EscapeAttr escapes attribute values for double-quoted HTML attributes.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, "&\"<") {
		return s
	}
	return escapeAttrReplacer.Replace(s)
}

// entities are the references AppendUnescaped rewrites. None is a prefix of
// another, so at each '&' at most one applies.
var entities = [...]struct{ ref, text string }{
	{"&lt;", "<"}, {"&gt;", ">"}, {"&quot;", `"`}, {"&#39;", "'"}, {"&apos;", "'"}, {"&amp;", "&"},
}

// entityAt returns the entity s starts with, if any.
func entityAt(s string) (ref, text string, ok bool) {
	for _, e := range entities {
		if strings.HasPrefix(s, e.ref) {
			return e.ref, e.text, true
		}
	}
	return "", "", false
}

// HasEntity reports whether s holds a reference AppendUnescaped rewrites.
func HasEntity(s string) bool {
	for i := strings.IndexByte(s, '&'); i >= 0; {
		if _, _, ok := entityAt(s[i:]); ok {
			return true
		}
		j := strings.IndexByte(s[i+1:], '&')
		if j < 0 {
			return false
		}
		i += 1 + j
	}
	return false
}

// AppendUnescaped appends s to dst with the entity encoding of
// EscapeText and EscapeAttr reversed (plus the common &#39; and &apos;
// forms). References are rewritten left to right, and a rewrite's text is not read again:
// "&amp;lt;" becomes "&lt;".
func AppendUnescaped(dst []byte, s string) []byte {
	for {
		i := strings.IndexByte(s, '&')
		if i < 0 {
			return append(dst, s...)
		}
		dst = append(dst, s[:i]...)
		s = s[i:]
		if ref, text, ok := entityAt(s); ok {
			dst = append(dst, text...)
			s = s[len(ref):]
		} else {
			dst = append(dst, '&')
			s = s[1:]
		}
	}
}
