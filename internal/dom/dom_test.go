package dom

import (
	"strings"
	"testing"
	"testing/quick"
)

func newDocument() *Node { return &Node{Type: DocumentNode} }

func newElement(tag string) *Node {
	return &Node{Type: ElementNode, Tag: strings.ToLower(tag)}
}

func newText(data string) *Node { return &Node{Type: TextNode, Data: data} }

func newComment(data string) *Node { return &Node{Type: CommentNode, Data: data} }

func buildSample() *Node {
	doc := newDocument()
	html := newElement("html")
	doc.AppendChild(html)
	head := newElement("head")
	html.AppendChild(head)
	title := newElement("title")
	title.AppendChild(newText("Sample Page"))
	head.AppendChild(title)
	body := newElement("body")
	html.AppendChild(body)
	div := newElement("div").SetAttr("id", "main").SetAttr("class", "content")
	body.AppendChild(div)
	div.AppendChild(newText("Hello "))
	b := newElement("b")
	b.AppendChild(newText("world"))
	div.AppendChild(b)
	img := newElement("img").SetAttr("src", "http://ads.example/banner.png")
	body.AppendChild(img)
	script := newElement("script").SetAttr("src", "http://tracker.example/t.js")
	body.AppendChild(script)
	return doc
}

func TestTreeStructure(t *testing.T) {
	doc := buildSample()
	html := doc.FirstChild
	if html.Tag != "html" || html.Parent != doc {
		t.Fatal("html node misplaced")
	}
	var kids []*Node
	for c := html.FirstChild; c != nil; c = c.NextSibling {
		kids = append(kids, c)
	}
	if len(kids) != 2 || kids[0].Tag != "head" || kids[1].Tag != "body" {
		t.Fatalf("html children = %v", kids)
	}
	// doc, html, head, title, text, body, div, text, b, text, img,
	// script = 12 nodes.
	count := 0
	doc.Walk(func(*Node) bool { count++; return true })
	if count != 12 {
		t.Errorf("tree has %d nodes, want 12", count)
	}
}

func TestAppendChildPanicsOnAttached(t *testing.T) {
	doc := buildSample()
	img := doc.GetElementsByTag("img")[0]
	defer func() {
		if recover() == nil {
			t.Error("AppendChild of attached node did not panic")
		}
	}()
	newElement("div").AppendChild(img)
}

func TestQueries(t *testing.T) {
	doc := buildSample()
	scripts := doc.GetElementsByTag("script")
	if len(scripts) != 1 || scripts[0].Attr("src") != "http://tracker.example/t.js" {
		t.Errorf("scripts = %v", scripts)
	}
	if got := doc.GetElementsByTag("div")[0].InnerText(); got != "Hello world" {
		t.Errorf("InnerText = %q", got)
	}
}

func TestAttrHelpers(t *testing.T) {
	el := newElement("a")
	if el.HasAttr("href") {
		t.Error("HasAttr on empty element")
	}
	el.SetAttr("HREF", "http://x.example/")
	if el.Attr("href") != "http://x.example/" {
		t.Error("case-insensitive attr lookup failed")
	}
	if !el.HasAttr("Href") {
		t.Error("HasAttr failed")
	}
	var detached Node
	if detached.Attr("x") != "" {
		t.Error("Attr on zero node")
	}
}

func TestOuterHTML(t *testing.T) {
	doc := buildSample()
	html := doc.OuterHTML()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"<title>Sample Page</title>",
		`<div class="content" id="main">`,
		"Hello <b>world</b></div>",
		`<img src="http://ads.example/banner.png">`,
		`<script src="http://tracker.example/t.js"></script>`,
	} {
		if !strings.Contains(html, want) {
			t.Errorf("OuterHTML missing %q:\n%s", want, html)
		}
	}
	if strings.Contains(html, "</img>") {
		t.Error("void element got a closing tag")
	}
}

func TestOuterHTMLDeterministic(t *testing.T) {
	el := newElement("div")
	el.SetAttr("b", "2").SetAttr("a", "1").SetAttr("c", "3")
	want := `<div a="1" b="2" c="3"></div>`
	for i := 0; i < 10; i++ {
		if got := el.OuterHTML(); got != want {
			t.Fatalf("OuterHTML = %q, want %q", got, want)
		}
	}
}

func TestEscaping(t *testing.T) {
	el := newElement("p")
	el.AppendChild(newText(`a < b & c > d`))
	if got := el.OuterHTML(); got != "<p>a &lt; b &amp; c &gt; d</p>" {
		t.Errorf("text escaping = %q", got)
	}
	el2 := newElement("a").SetAttr("title", `say "hi" & bye`)
	if got := el2.OuterHTML(); !strings.Contains(got, `title="say &quot;hi&quot; &amp; bye"`) {
		t.Errorf("attr escaping = %q", got)
	}
	script := newElement("script")
	script.AppendChild(newText("if (a < b && c > d) {}"))
	if got := script.OuterHTML(); got != "<script>if (a < b && c > d) {}</script>" {
		t.Errorf("raw text escaping = %q", got)
	}
}

func TestUnescapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		return string(AppendUnescaped(nil, EscapeText(s))) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(s string) bool {
		return string(AppendUnescaped(nil, EscapeAttr(s))) == s
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestCommentSerialization(t *testing.T) {
	doc := newDocument()
	doc.AppendChild(newComment(" hidden tracker note "))
	if got := doc.OuterHTML(); !strings.Contains(got, "<!-- hidden tracker note -->") {
		t.Errorf("comment = %q", got)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	doc := buildSample()
	visits := 0
	doc.Walk(func(n *Node) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Errorf("visits = %d, want 3", visits)
	}
}

func TestIsVoidElement(t *testing.T) {
	if !IsVoidElement("IMG") || !IsVoidElement("br") {
		t.Error("void detection failed")
	}
	if IsVoidElement("div") || IsVoidElement("script") {
		t.Error("non-void misdetected")
	}
}

// unescapeReplacer is the unescape as it was, a strings.Replacer: the
// oracle for the hand scan.
var unescapeReplacer = strings.NewReplacer("&lt;", "<", "&gt;", ">", "&quot;", `"`, "&#39;", "'", "&apos;", "'", "&amp;", "&")

// TestUnescapeMatchesReplacer: over strings cut from entity fragments,
// AppendUnescaped and HasEntity agree with the replacer.
func TestUnescapeMatchesReplacer(t *testing.T) {
	frags := []string{"&", "&amp;", "&lt;", "&gt;", "&quot;", "&#39;", "&apos;", "&am", "&#3", "lt;", "amp;", "a", "é", "<", ";", "&&"}
	seed := uint32(7)
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := i % 9; n > 0; n-- {
			seed = seed*1664525 + 1013904223
			b.WriteString(frags[seed>>16%uint32(len(frags))])
		}
		s := b.String()
		want := unescapeReplacer.Replace(s)
		if got := string(AppendUnescaped(nil, s)); got != want {
			t.Fatalf("AppendUnescaped(%q) = %q, replacer gives %q", s, got, want)
		}
		if HasEntity(s) != (want != s) {
			t.Fatalf("HasEntity(%q) = %v, but the replacer gives %q", s, HasEntity(s), want)
		}
	}
}
