package dom

import (
	"strings"
	"testing"
	"testing/quick"
)

func buildSample() *Node {
	doc := NewDocument()
	html := NewElement("html")
	doc.AppendChild(html)
	head := NewElement("head")
	html.AppendChild(head)
	title := NewElement("title")
	title.AppendChild(NewText("Sample Page"))
	head.AppendChild(title)
	body := NewElement("body")
	html.AppendChild(body)
	div := NewElement("div").SetAttr("id", "main").SetAttr("class", "content")
	body.AppendChild(div)
	div.AppendChild(NewText("Hello "))
	b := NewElement("b")
	b.AppendChild(NewText("world"))
	div.AppendChild(b)
	img := NewElement("img").SetAttr("src", "http://ads.example/banner.png")
	body.AppendChild(img)
	script := NewElement("script").SetAttr("src", "http://tracker.example/t.js")
	body.AppendChild(script)
	return doc
}

func TestTreeStructure(t *testing.T) {
	doc := buildSample()
	html := doc.FirstChild
	if html.Tag != "html" || html.Parent != doc {
		t.Fatal("html node misplaced")
	}
	kids := html.Children()
	if len(kids) != 2 || kids[0].Tag != "head" || kids[1].Tag != "body" {
		t.Fatalf("html children = %v", kids)
	}
	// doc, html, head, title, text, body, div, text, b, text, img,
	// script = 12 nodes.
	if doc.CountNodes() != 12 {
		t.Errorf("CountNodes = %d, want 12", doc.CountNodes())
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
	NewElement("div").AppendChild(img)
}

func TestRemoveChild(t *testing.T) {
	doc := buildSample()
	body := doc.GetElementsByTag("body")[0]
	img := doc.GetElementsByTag("img")[0]
	body.RemoveChild(img)
	if len(doc.GetElementsByTag("img")) != 0 {
		t.Error("img still present after removal")
	}
	if img.Parent != nil || img.PrevSibling != nil || img.NextSibling != nil {
		t.Error("removed node retains links")
	}
	// Re-attach works after detach.
	body.AppendChild(img)
	if len(doc.GetElementsByTag("img")) != 1 {
		t.Error("re-attach failed")
	}
	// Removing the first child updates FirstChild.
	div := doc.GetElementByID("main")
	body.RemoveChild(div)
	if body.FirstChild == div {
		t.Error("FirstChild not updated")
	}
}

func TestQueries(t *testing.T) {
	doc := buildSample()
	if n := doc.GetElementByID("main"); n == nil || n.Tag != "div" {
		t.Error("GetElementByID failed")
	}
	if doc.GetElementByID("nope") != nil {
		t.Error("GetElementByID found nonexistent id")
	}
	scripts := doc.GetElementsByTag("script")
	if len(scripts) != 1 || scripts[0].Attr("src") != "http://tracker.example/t.js" {
		t.Errorf("scripts = %v", scripts)
	}
	if got := doc.GetElementByID("main").InnerText(); got != "Hello world" {
		t.Errorf("InnerText = %q", got)
	}
}

func TestAttrHelpers(t *testing.T) {
	el := NewElement("a")
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
	el := NewElement("div")
	el.SetAttr("b", "2").SetAttr("a", "1").SetAttr("c", "3")
	want := `<div a="1" b="2" c="3"></div>`
	for i := 0; i < 10; i++ {
		if got := el.OuterHTML(); got != want {
			t.Fatalf("OuterHTML = %q, want %q", got, want)
		}
	}
}

func TestEscaping(t *testing.T) {
	el := NewElement("p")
	el.AppendChild(NewText(`a < b & c > d`))
	if got := el.OuterHTML(); got != "<p>a &lt; b &amp; c &gt; d</p>" {
		t.Errorf("text escaping = %q", got)
	}
	el2 := NewElement("a").SetAttr("title", `say "hi" & bye`)
	if got := el2.OuterHTML(); !strings.Contains(got, `title="say &quot;hi&quot; &amp; bye"`) {
		t.Errorf("attr escaping = %q", got)
	}
	script := NewElement("script")
	script.AppendChild(NewText("if (a < b && c > d) {}"))
	if got := script.OuterHTML(); got != "<script>if (a < b && c > d) {}</script>" {
		t.Errorf("raw text escaping = %q", got)
	}
}

func TestUnescapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		return UnescapeText(EscapeText(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(s string) bool {
		return UnescapeText(EscapeAttr(s)) == s
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestCommentSerialization(t *testing.T) {
	doc := NewDocument()
	doc.AppendChild(NewComment(" hidden tracker note "))
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

func TestInnerHTML(t *testing.T) {
	div := NewElement("div")
	div.AppendChild(NewText("x"))
	div.AppendChild(NewElement("br"))
	if got := div.InnerHTML(); got != "x<br>" {
		t.Errorf("InnerHTML = %q", got)
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

// unescapeReplacer is UnescapeText as it was, a strings.Replacer: the
// oracle for the hand scan.
var unescapeReplacer = strings.NewReplacer("&lt;", "<", "&gt;", ">", "&quot;", `"`, "&#39;", "'", "&apos;", "'", "&amp;", "&")

// TestUnescapeMatchesReplacer: over strings cut from entity fragments,
// UnescapeText and HasEntity agree with the replacer, and a string with
// nothing to rewrite comes back as itself.
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
		if got := UnescapeText(s); got != want {
			t.Fatalf("UnescapeText(%q) = %q, replacer gives %q", s, got, want)
		}
		if HasEntity(s) != (want != s) {
			t.Fatalf("HasEntity(%q) = %v, but the replacer gives %q", s, HasEntity(s), want)
		}
	}
}
