package htmlparse

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dom"
)

// refOpenTag is parseOpenTag as it was when attributes were maps: the
// tag's attributes are collected into a scratch map, then copied into
// the element's own map by SetAttr (which lower-cased each name a second
// time), and serialized with the names sorted. It returns what the
// element's outer HTML must be and where the parser must stand.
func refOpenTag(src string, pos int) (html string, selfClose, ok bool, end int) {
	i := pos + 1
	start := i
	for i < len(src) && isNameByte(src[i]) {
		i++
	}
	if i == start {
		return "", false, false, pos
	}
	tag := strings.ToLower(src[start:i])
	attrs := map[string]string{}
	done := func(selfClose bool, end int) (string, bool, bool, int) {
		el := map[string]string{}
		for k, v := range attrs {
			el[strings.ToLower(k)] = v
		}
		names := make([]string, 0, len(el))
		for name := range el {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("<" + tag)
		for _, name := range names {
			fmt.Fprintf(&b, ` %s="%s"`, name, dom.EscapeAttr(el[name]))
		}
		b.WriteString(">")
		if !dom.IsVoidElement(tag) {
			b.WriteString("</" + tag + ">")
		}
		return b.String(), selfClose, true, end
	}
	for {
		for i < len(src) && isSpace(src[i]) {
			i++
		}
		if i >= len(src) {
			return done(false, i)
		}
		switch src[i] {
		case '>':
			return done(false, i+1)
		case '/':
			i++
			if i < len(src) && src[i] == '>' {
				return done(true, i+1)
			}
			continue
		}
		nameStart := i
		for i < len(src) && src[i] != '=' && src[i] != '>' && src[i] != '/' && !isSpace(src[i]) {
			i++
		}
		name := strings.ToLower(src[nameStart:i])
		if name == "" {
			i++
			continue
		}
		for i < len(src) && isSpace(src[i]) {
			i++
		}
		if i >= len(src) || src[i] != '=' {
			attrs[name] = ""
			continue
		}
		i++
		for i < len(src) && isSpace(src[i]) {
			i++
		}
		if i >= len(src) {
			attrs[name] = ""
			return done(false, i)
		}
		var val string
		if q := src[i]; q == '"' || q == '\'' {
			i++
			valStart := i
			for i < len(src) && src[i] != q {
				i++
			}
			val = src[valStart:i]
			if i < len(src) {
				i++
			}
		} else {
			valStart := i
			for i < len(src) && !isSpace(src[i]) && src[i] != '>' {
				i++
			}
			val = src[valStart:i]
		}
		attrs[name] = string(dom.AppendUnescaped(nil, val))
	}
}

// checkOpenTags parses an open tag at every '<' of src — a superset of
// the places Parse does — with the parser and with refOpenTag.
func checkOpenTags(t *testing.T, src string) {
	t.Helper()
	for pos := 0; pos < len(src); pos++ {
		if src[pos] != '<' {
			continue
		}
		p := &parser{src: src, pos: pos, arena: new(Arena)}
		el, selfClose := p.parseOpenTag()
		want, wantSelfClose, ok, end := refOpenTag(src, pos)
		if (el != nil) != ok || selfClose != wantSelfClose || p.pos != end {
			t.Fatalf("open tag at %d of %q: element %v self-close %v end %d; map parser: %v %v %d",
				pos, src, el != nil, selfClose, p.pos, ok, wantSelfClose, end)
		}
		if ok && el.OuterHTML() != want {
			t.Fatalf("open tag at %d of %q:\n got %s\nwant %s", pos, src, el.OuterHTML(), want)
		}
	}
}

// TestAttrsMatchMapSemantics: the attribute slice behaves as the two
// maps it replaced did — a repeated name keeps its last value, names
// fold to lower case, bare attributes are present and empty — and
// serializes to the same bytes, over the FuzzParse corpus.
func TestAttrsMatchMapSemantics(t *testing.T) {
	corpus := append([]string(nil), parseSeeds...)
	files, err := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed fuzz corpus: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\nstring(<quoted>)\n"
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")")
		src, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		corpus = append(corpus, src)
	}
	for _, src := range corpus {
		checkOpenTags(t, src)
	}

	a := Parse(`<a href="1" HREF='2' hReF=3 Download>x</a>`).GetElementsByTag("a")[0]
	if a.Attr("href") != "3" || a.Attr("HREF") != "3" {
		t.Errorf("repeated attribute: href = %q, want the last value", a.Attr("href"))
	}
	if !a.HasAttr("download") || a.Attr("download") != "" || a.HasAttr("rel") {
		t.Error("bare attribute must be present and empty; absent ones absent")
	}
	if got, want := a.OuterHTML(), `<a download="" href="3">x</a>`; got != want {
		t.Errorf("OuterHTML = %s, want %s", got, want)
	}
}
