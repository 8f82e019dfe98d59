package htmlparse

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dom"
)

func TestParseSimplePage(t *testing.T) {
	src := `<!DOCTYPE html>
<html>
<head><title>Pub Home</title></head>
<body>
<h1 id="hdr">Welcome</h1>
<p>Some <b>bold</b> text.</p>
<img src="http://cdn.pub.example/logo.png" alt="logo">
<script src="http://tracker.example/t.js"></script>
<a href="/page/2">next</a>
</body>
</html>`
	doc := Parse(src)
	if title := doc.GetElementsByTag("title"); len(title) != 1 || title[0].InnerText() != "Pub Home" {
		t.Errorf("title parse failed: %v", title)
	}
	h1 := doc.GetElementByID("hdr")
	if h1 == nil || h1.InnerText() != "Welcome" {
		t.Error("h1 parse failed")
	}
	imgs := doc.GetElementsByTag("img")
	if len(imgs) != 1 || imgs[0].Attr("src") != "http://cdn.pub.example/logo.png" || imgs[0].Attr("alt") != "logo" {
		t.Errorf("img parse failed: %v", imgs)
	}
	links := doc.GetElementsByTag("a")
	if len(links) != 1 || links[0].Attr("href") != "/page/2" {
		t.Errorf("a parse failed")
	}
	if p := doc.GetElementsByTag("p"); len(p) != 1 || p[0].InnerText() != "Some bold text." {
		t.Errorf("nested inline parse failed")
	}
}

func TestParseScriptRawText(t *testing.T) {
	src := `<script>if (a < b && c > d) { ws = new WebSocket("ws://adnet.example/data.ws"); }</script>`
	doc := Parse(src)
	scripts := doc.GetElementsByTag("script")
	if len(scripts) != 1 {
		t.Fatalf("scripts = %d", len(scripts))
	}
	body := scripts[0].InnerText()
	if !strings.Contains(body, `new WebSocket("ws://adnet.example/data.ws")`) {
		t.Errorf("script body = %q", body)
	}
	// '<' inside script must not start a new element.
	if len(doc.GetElementsByTag("b")) != 0 {
		t.Error("parsed elements inside script raw text")
	}
}

func TestParseAttributes(t *testing.T) {
	tests := []struct {
		src, attr, want string
	}{
		{`<div data-x="1 2"></div>`, "data-x", "1 2"},
		{`<div data-x='single'></div>`, "data-x", "single"},
		{`<div data-x=bare></div>`, "data-x", "bare"},
		{`<input disabled>`, "disabled", ""},
		{`<div data-x="a&amp;b"></div>`, "data-x", "a&b"},
	}
	for _, tc := range tests {
		doc := Parse(tc.src)
		var el *dom.Node
		doc.Walk(func(n *dom.Node) bool {
			if n.Type == dom.ElementNode {
				el = n
				return false
			}
			return true
		})
		if el == nil {
			t.Fatalf("no element parsed from %q", tc.src)
		}
		if !el.HasAttr(tc.attr) || el.Attr(tc.attr) != tc.want {
			t.Errorf("Parse(%q): attr %q = %q, want %q", tc.src, tc.attr, el.Attr(tc.attr), tc.want)
		}
	}
}

func TestParseComments(t *testing.T) {
	doc := Parse(`<div><!-- ad slot 3 --><span>x</span></div>`)
	var comment *dom.Node
	doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.CommentNode {
			comment = n
			return false
		}
		return true
	})
	if comment == nil || comment.Data != " ad slot 3 " {
		t.Errorf("comment = %v", comment)
	}
	if len(doc.GetElementsByTag("span")) != 1 {
		t.Error("element after comment lost")
	}
}

func TestParseSelfClosing(t *testing.T) {
	doc := Parse(`<div><br/><img src="x.png"/><p>after</p></div>`)
	if len(doc.GetElementsByTag("br")) != 1 || len(doc.GetElementsByTag("img")) != 1 {
		t.Error("self-closing elements lost")
	}
	p := doc.GetElementsByTag("p")
	if len(p) != 1 || p[0].Parent.Tag != "div" {
		t.Error("element after self-closing misplaced")
	}
}

func TestParseVoidWithoutSlash(t *testing.T) {
	doc := Parse(`<p>a<br>b</p>`)
	p := doc.GetElementsByTag("p")[0]
	if p.InnerText() != "ab" {
		t.Errorf("InnerText = %q", p.InnerText())
	}
	br := doc.GetElementsByTag("br")[0]
	if br.FirstChild != nil {
		t.Error("void element captured children")
	}
}

func TestParseRecovery(t *testing.T) {
	// Unclosed elements close at EOF; stray close tags are ignored.
	doc := Parse(`<div><p>unclosed</span><b>bold`)
	if len(doc.GetElementsByTag("div")) != 1 || len(doc.GetElementsByTag("b")) != 1 {
		t.Error("recovery parse lost elements")
	}
	if got := doc.InnerText(); got != "unclosedbold" {
		t.Errorf("InnerText = %q", got)
	}
	// Bare '<' treated as text.
	doc2 := Parse(`<p>1 < 2</p>`)
	if got := doc2.GetElementsByTag("p")[0].InnerText(); got != "1 < 2" {
		t.Errorf("bare < text = %q", got)
	}
}

func TestParseEntities(t *testing.T) {
	doc := Parse(`<p>a &lt; b &amp;&amp; c &gt; d</p>`)
	if got := doc.GetElementsByTag("p")[0].InnerText(); got != "a < b && c > d" {
		t.Errorf("entities = %q", got)
	}
}

// TestSerializeParseRoundTrip checks that serializing a parsed tree and
// reparsing yields an identical serialization (fixed point after one
// round).
func TestSerializeParseRoundTrip(t *testing.T) {
	srcs := []string{
		`<!DOCTYPE html><html><head><title>T</title></head><body><div id="a">x<b>y</b></div><img src="i.png"><script>var a = 1 < 2;</script></body></html>`,
		`<div class="x" id="y"><p>hello &amp; goodbye</p></div>`,
	}
	for _, src := range srcs {
		once := Parse(src).OuterHTML()
		twice := Parse(once).OuterHTML()
		if once != twice {
			t.Errorf("round trip not stable:\nonce:  %s\ntwice: %s", once, twice)
		}
	}
}

// TestParseNeverPanicsProperty feeds adversarial fragments and asserts the
// parser always produces a tree.
func TestParseNeverPanicsProperty(t *testing.T) {
	pieces := []string{"<", ">", "</", "<div", "\"", "'", "=", "a", " ", "<!--", "-->", "<script>", "</script>", "<!", "/>", "&amp;", "<br>"}
	f := func(idx []uint8) bool {
		var b strings.Builder
		for _, i := range idx {
			b.WriteString(pieces[int(i)%len(pieces)])
		}
		doc := Parse(b.String())
		return doc != nil && doc.Type == dom.DocumentNode
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseDeepNesting(t *testing.T) {
	var b strings.Builder
	const depth = 200
	for i := 0; i < depth; i++ {
		b.WriteString("<div>")
	}
	b.WriteString("core")
	for i := 0; i < depth; i++ {
		b.WriteString("</div>")
	}
	doc := Parse(b.String())
	if got := len(doc.GetElementsByTag("div")); got != depth {
		t.Errorf("divs = %d, want %d", got, depth)
	}
	if doc.InnerText() != "core" {
		t.Errorf("InnerText = %q", doc.InnerText())
	}
}

func TestParseIframeAndLinkExtractionShape(t *testing.T) {
	src := `<body>
	<iframe src="http://ads.example/frame.html"></iframe>
	<a href="http://pub.example/p1">1</a>
	<a href="http://pub.example/p2">2</a>
	</body>`
	doc := Parse(src)
	if ifr := doc.GetElementsByTag("iframe"); len(ifr) != 1 || ifr[0].Attr("src") != "http://ads.example/frame.html" {
		t.Error("iframe parse failed")
	}
	if links := doc.GetElementsByTag("a"); len(links) != 2 {
		t.Error("link parse failed")
	}
}

// Raw-text bodies are searched for their close tag in place. A
// lower-cased copy changes byte length under non-ASCII letters —
// U+023A grows from 2 bytes to 3, U+212A (Kelvin sign) shrinks from 3
// to 1 — and an index into the copy once sliced the source out of
// bounds (panic) or at the wrong byte.
func TestParseRawTextNonASCIICase(t *testing.T) {
	for _, letter := range []string{"\u023a", "\u212a", "\u0130"} {
		body := strings.Repeat(letter, 50) + " var x = '<b>';"
		for _, closeTag := range []string{"</script>", "</SCRIPT >", "</ScRiPt\n>"} {
			doc := Parse("<script>" + body + closeTag + "<p>after</p>")
			scripts := doc.GetElementsByTag("script")
			if len(scripts) != 1 || scripts[0].InnerText() != body {
				t.Fatalf("%q body with %q: script text = %q, want %q", letter, closeTag, scripts[0].InnerText(), body)
			}
			if p := doc.GetElementsByTag("p"); len(p) != 1 || p[0].InnerText() != "after" {
				t.Errorf("%q body with %q: content after the script lost", letter, closeTag)
			}
		}
	}
	// Only ASCII case folds in a tag name: U+0130 lower-cases to "i",
	// but "</scr\u0130pt>" does not close a script.
	doc := Parse("<script>a</scr\u0130pt>b</script>")
	if got := doc.GetElementsByTag("script")[0].InnerText(); got != "a</scr\u0130pt>b" {
		t.Errorf("non-ASCII close tag ended the script: text = %q", got)
	}
	if doc := Parse("<style>" + strings.Repeat("\u023a", 50)); doc.GetElementsByTag("style")[0].InnerText() != strings.Repeat("\u023a", 50) {
		t.Error("unterminated style body lost")
	}
}

// FuzzParse: any byte string parses to a document without panicking,
// in one pass (the tree never holds more nodes than the source has
// bytes), and the tree serializes.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := Parse(src)
		if doc == nil || doc.Type != dom.DocumentNode {
			t.Fatalf("Parse(%q) did not return a document", src)
		}
		nodes := 0
		doc.Walk(func(*dom.Node) bool {
			nodes++
			return true
		})
		if nodes > len(src)+1 {
			t.Fatalf("Parse(%q): %d nodes from %d bytes", src, nodes, len(src))
		}
		_ = doc.OuterHTML()
		checkOpenTags(t, src)
	})
}

// parseSeeds is FuzzParse's seed corpus, shared with the table tests.
var parseSeeds = []string{
	"<script>" + strings.Repeat("\u023a", 50) + "</script>",
	"<script>" + strings.Repeat("\u212a", 50) + "</script><p>x</p>",
	"<STYLE>\u0130</sTyLe \n>",
	"<script></scr</script",
	"<script>",
	"<!DOCTYPE html><html><head><title>t</title></head><body class=a id='b' c=d e><br/><!-- c --><p>&amp;</p></body></html>",
	"<<a <b></c>< /><!--", "<!", "</", "<a href=\"", "<div" + strings.Repeat("<div>", 40),
	"\xff<\xfe>\x00</\x80>",
	// Attribute shapes: repeats, mixed case, bare, unquoted, unterminated.
	`<a href="1" HREF='2' hReF=3>x</a>`,
	`<input disabled DISABLED="" value = "a&amp;b" checked/>`,
	`<img src=/a.gif alt><IMG SRC="/b.gif" Alt="&lt;b&gt;">`,
	`<p a=1 b=2 c=3 d=4 e=5 f=6 g=7 h=8 a=9 Z=0 =x ==y>`,
	`<div id="x" class= data-k="v" id='y'`,
	"<a \u0130=1 i\u0307=2 \u212a=3 k=4 \xff=5>",
}
