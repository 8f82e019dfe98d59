package script_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/script"
	"repro/internal/urlutil"
	"repro/internal/webgen"
)

// refEncode and refDecode are the codec as it was before the hand
// encoder and cursor decoder: encoding/json both ways. They are the
// oracle; production reaches encoding/json only on its fallback branch.
func refEncode(p *script.Program) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	data, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("script: encode: %w", err)
	}
	var b strings.Builder
	b.WriteString(script.Marker)
	b.WriteString("\n(function(){\"use strict\";\n")
	b.WriteString("var __program = ")
	b.Write(data)
	b.WriteString(";\n__run(__program);\n})();\n")
	return []byte(b.String()), nil
}

func refDecode(body string) (*script.Program, error) {
	if !strings.Contains(body, script.Marker) {
		return nil, nil
	}
	const assign = "var __program = "
	i := strings.Index(body, assign)
	if i < 0 {
		return nil, fmt.Errorf("script: marker present but no program assignment")
	}
	rest := body[i+len(assign):]
	end := strings.Index(rest, ";\n")
	if end < 0 {
		return nil, fmt.Errorf("script: unterminated program literal")
	}
	var p script.Program
	if err := json.Unmarshal([]byte(rest[:end]), &p); err != nil {
		return nil, fmt.Errorf("script: decode program: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkScratch is the scratch checkDecode decodes into, reset per body.
var checkScratch script.Scratch

// checkDecode holds Decode, and Decode into a scratch, to the oracle on
// one body: same program, same nil-ness, same error.
func checkDecode(t *testing.T, body string) {
	t.Helper()
	got, gotErr := script.Decode(body)
	want, wantErr := refDecode(body)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("Decode(%q): err %v, oracle %v", body, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode(%q):\n got %#v\nwant %#v", body, got, want)
	}
	checkScratch.Reset()
	got, gotErr = checkScratch.Decode(body)
	if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Scratch.Decode(%q) = %#v, %v; oracle %#v, %v", body, got, gotErr, want, wantErr)
	}
}

// checkEncode holds Encode to the oracle on one program, then Decode to
// its oracle on the bytes.
func checkEncode(t *testing.T, p *script.Program) {
	t.Helper()
	got, gotErr := p.Encode()
	want, wantErr := refEncode(p)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("Encode(%+v): err %v, oracle %v", p, gotErr, wantErr)
	}
	if string(got) != string(want) {
		t.Fatalf("Encode(%+v):\n got %s\nwant %s", p, got, want)
	}
	if gotErr == nil {
		checkDecode(t, string(got))
	}
}

func wrap(lit string) string {
	return script.Marker + "\n(function(){\"use strict\";\nvar __program = " + lit + ";\n__run(__program);\n})();\n"
}

// decodeSeeds are literals on both sides of the fast path's shape.
var decodeSeeds = []string{
	`{"ops":null}`,
	`{"ops":[]}`,
	`{}`,
	`null`,
	`{"ops":[{"do":"include_script","url":"http://a.example/w.js?pub=p.example@u0026pg=3"}]}`,
	`{"ops":[{"do":"open_websocket","url":"ws://r.example/ws?sid=00c0ffee@u0026n=2","send":[{"kinds":["ua","cookie"]},{"kinds":["binary"],"binary":true},{"text":"hi"},{}],"expect":2,"sendCookie":true}]}`,
	`{"ops":[{"do":"load_image","url":"http://a.example/p.gif"},{"do":"http_beacon","url":"http://a.example/track/b","send":[{"kinds":["ua"]}],"sendCookie":true},{"do":"insert_iframe","url":"http://a.example/frame.html"}]}`,
	`{"ops":[{"do":"load_image","url":"http://a.example/@u003cb@u003e@u0026"}]}`,
	`{"ops":[{"do":"load_image","url":"http://a.example/@u003Cb"}]}`,
	`{"ops":[{"do":"load_image","url":"http://a.example/@"q@"@@"}]}`,
	`{"ops":[{"do":"load_image","url":"http://a.example/@n@t@/"}]}`,
	`{"ops":[{"do":"load_image","url":"http://a.example/é@u00e9"}]}`,
	`{"ops":[{"do":"load_image","url":"http://a.example/&<>"}]}`,
	`{"ops": [ {"do": "load_image", "url": "http://a.example/x"} ] }`,
	`{"ops":[{"url":"http://a.example/x","do":"load_image"}]}`,
	`{"ops":[{"do":"load_image","url":"http://a.example/x","extra":1}]}`,
	`{"ops":[{"DO":"load_image","URL":"http://a.example/x"}]}`,
	`{"ops":[{"do":"load_image","url":"http://a.example/x","url":"http://b.example/y"}]}`,
	`{"ops":[{"do":"open_websocket","url":"ws://r.example/ws","expect":0}]}`,
	`{"ops":[{"do":"open_websocket","url":"ws://r.example/ws","expect":-1}]}`,
	`{"ops":[{"do":"open_websocket","url":"ws://r.example/ws","expect":007}]}`,
	`{"ops":[{"do":"open_websocket","url":"ws://r.example/ws","expect":1.5}]}`,
	`{"ops":[{"do":"open_websocket","url":"ws://r.example/ws","expect":12345678901234567890}]}`,
	`{"ops":[{"do":"open_websocket","url":"ws://r.example/ws","send":[],"sendCookie":false}]}`,
	`{"ops":[{"do":"open_websocket","url":"ws://r.example/ws","send":[{"kinds":[]}]}]}`,
	`{"ops":[{"do":"open_websocket","url":"ws://r.example/ws","send":[{"kinds":["a,b","c]"]},]}]}`,
	`{"ops":[{"do":"open_websocket","url":"http://r.example/ws"}]}`,
	`{"ops":[{"do":"launch_missiles"}]}`,
	`{"ops":[{"do":"load_image"}]}`,
	`{"ops":[{"do":"load_image","url":"http://a.example/x"},]}`,
	`{"ops":[,,,,]}`,
	`{"ops":[{"do":"load_image","url":"http://a.example/x"}]}trailing`,
	`{"ops":[{"do":"load_image","url":"http://a.example/x"}`,
	`{"ops":[{"do":"load_image","url":"http://a.example/x`,
	`{not json}`,
}

func everyOp(url, text, kind string, expect int, flags uint8) *script.Program {
	kinds := []string{kind, text}
	if flags&16 != 0 {
		kinds = []string{}
	}
	p := &script.Program{Ops: []script.Op{
		script.Include(url),
		{Do: script.OpOpenWebSocket, URL: "ws://" + url, Expect: expect, SendCookie: flags&2 != 0,
			Send: []script.MessageSpec{{Kinds: kinds, Binary: flags&1 != 0, Text: text}, {}, {Binary: true}, {Text: kind}}},
		script.Image(url),
		{Do: script.OpHTTPBeacon, URL: url, Send: []script.MessageSpec{{Kinds: []string{kind}}}},
		{Do: script.OpInsertIframe, URL: url},
	}}
	switch {
	case flags&4 != 0:
		p.Ops = nil
	case flags&8 != 0:
		p.Ops = []script.Op{}
	case flags&32 != 0:
		p.Ops = p.Ops[1:2]
	}
	return p
}

// FuzzProgramCodecMatchesJSON: for arbitrary bodies Decode equals the
// encoding/json decoder in program value and in nil/err outcome, and
// for arbitrary programs Encode's bytes equal the encoding/json
// encoder's.
func FuzzProgramCodecMatchesJSON(f *testing.F) {
	for i, lit := range decodeSeeds {
		f.Add(wrap(strings.ReplaceAll(lit, "@", `\`)), "a.example/w.js?pub=p.example&pg=3", "", "ua", i%3, uint8(i))
	}
	f.Add("plain();", "a.example/<b>&\"q\"\\", "text & <more>", "kind\n", -7, uint8(3))
	f.Add(script.Marker+" var x = 1;", "é.example/ü", "\xff\xfe", " ", 1<<40, uint8(16))
	f.Add(script.Marker+"\nvar __program = {\"ops\":null}", "", "", "", 0, uint8(4))
	f.Fuzz(func(t *testing.T, body, url, text, kind string, expect int, flags uint8) {
		checkDecode(t, body)
		checkEncode(t, everyOp(url, text, kind, expect, flags))
	})
}

// TestCodecSeeds runs the fuzz seeds' interesting halves as a plain
// table, and pins which of them the fast path takes.
func TestCodecSeeds(t *testing.T) {
	fast := 0
	for _, lit := range decodeSeeds {
		lit = strings.ReplaceAll(lit, "@", `\`)
		checkDecode(t, wrap(lit))
		if _, ok := script.FastDecode(lit); ok {
			fast++
		}
	}
	// null, [], the three well-formed programs and the three-escape one;
	// well-formed literals that fail Validate are still in the shape.
	if fast < 6 || fast > 10 {
		t.Errorf("fast path took %d of %d seed literals", fast, len(decodeSeeds))
	}
	for flags := 0; flags < 64; flags++ {
		checkEncode(t, everyOp("a.example/w.js?pub=p.example&pg=3", "", "ua", flags%4, uint8(flags)))
		checkEncode(t, everyOp("a.example/<b>\"q\"\\", "text & <more>", "é\n", -flags, uint8(flags)))
	}
}

// TestWebgenProgramsTakeFastPath: every program a 40-publisher world
// serves is decoded by the cursor and re-encoded by the appender — the
// stdlib fallback is for inputs this program never produces.
func TestWebgenProgramsTakeFastPath(t *testing.T) {
	w := webgen.NewWorld(webgen.Config{Seed: 20170419, NumPublishers: 40})
	programs, fastDecoded, fastEncoded := 0, 0, 0
	var visit func(url string, depth int)
	visit = func(url string, depth int) {
		res, ok := w.GetURL(parseURL(t, url))
		if !ok || depth > 6 {
			t.Fatalf("no script at %s (depth %d)", url, depth)
		}
		body := string(res.Body)
		checkDecode(t, body)
		i := strings.Index(body, script.Assign)
		if i < 0 {
			return // a plain script
		}
		programs++
		lit := body[i+len(script.Assign):]
		lit = lit[:strings.Index(lit, ";\n")]
		p, ok := script.FastDecode(lit)
		if !ok {
			t.Errorf("%s: cursor declined %s", url, lit)
			return
		}
		fastDecoded++
		if again, ok := script.FastEncode(p); ok && string(again) == lit {
			fastEncoded++
		} else {
			t.Errorf("%s: appender declined or differs:\n got %s\nwant %s", url, again, lit)
		}
		for _, op := range p.Ops {
			if op.Do == script.OpIncludeScript {
				visit(op.URL, depth+1)
			}
		}
	}
	for _, pub := range w.Publishers {
		for page := 0; page <= pub.NumPages; page++ {
			visit(fmt.Sprintf("http://%s/js/app.js?pg=%d", pub.Domain, page), 0)
			for _, u := range w.PlanFor(pub, page).DirectURLs {
				visit(u, 0)
			}
		}
	}
	if programs < 1000 || fastDecoded != programs || fastEncoded != programs {
		t.Errorf("%d programs, %d decoded by the cursor, %d re-encoded by the appender", programs, fastDecoded, fastEncoded)
	}
}

// TestCodecAllocs pins the codec's allocation budget: decoding costs
// the Program, its Ops and one allocation per nested slice and per
// string that carried an escape; encoding costs the body.
func TestCodecAllocs(t *testing.T) {
	p := &script.Program{Ops: []script.Op{
		script.Include("http://adnet.example/ads.js?pub=p.example&pg=3"),
		{Do: script.OpOpenWebSocket, URL: "ws://tracker.example/collect?sid=00c0ffee&n=2", Send: []script.MessageSpec{
			{Kinds: []string{"ua", "cookie"}},
			{Kinds: []string{"screen", "viewport", "orientation"}},
		}, Expect: 2},
		script.Image("http://adnet.example/pixel.gif"),
	}}
	body := string(p.MustEncode())
	if got, ok := script.FastDecode(body[strings.Index(body, script.Assign)+len(script.Assign) : strings.Index(body, ";\n__run")]); !ok || !reflect.DeepEqual(got, p) {
		t.Fatalf("sample program is outside the fast path (ok=%v)", ok)
	}
	// Program + Ops + Send + 2×Kinds + 2 escaped URLs.
	if n := testing.AllocsPerRun(200, func() { _, _ = script.Decode(body) }); n > 8 {
		t.Errorf("Decode: %.0f allocs, budget 8", n)
	}
	// Into a scratch, the program, its lists and its escaped strings
	// land in storage the scratch keeps: a text chunk now and then.
	var s script.Scratch
	if n := testing.AllocsPerRun(200, func() { s.Reset(); _, _ = s.Decode(body) }); n > 0.1 {
		t.Errorf("Scratch.Decode: %.2f allocs, budget 0.1", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = p.Encode() }); n > 2 {
		t.Errorf("Encode: %.0f allocs, budget 2", n)
	}
	ref := testing.AllocsPerRun(200, func() { _, _ = refDecode(body) })
	t.Logf("encoding/json decoder: %.0f allocs", ref)
}

// TestCursorBoundsHints: the cursor sizes a list from a count of its
// commas, so a hostile body of commas must not buy an allocation in
// proportion to them before it is declined (an Op is 72 bytes: 100 000
// commas asked for 7.2 MB).
func TestCursorBoundsHints(t *testing.T) {
	commas := strings.Repeat(",", 100000)
	for _, lit := range []string{
		`{"ops":[` + commas + `]}`,
		`{"ops":[{"do":"open_websocket","send":[` + commas + `]}]}`,
		`{"ops":[{"do":"open_websocket","send":[{"kinds":[` + commas + `]}]}]}`,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, ok := script.FastDecode(lit); ok {
			t.Fatalf("accepted %.60q…", lit)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("declining %.60q… allocated %d bytes", lit, n)
		}
	}
}

// parseURL is urlutil.Parse for a test's URL literals: a malformed one
// fails the test.
func parseURL(tb testing.TB, raw string) *urlutil.URL {
	tb.Helper()
	u, err := urlutil.Parse(raw)
	if err != nil {
		tb.Fatal(err)
	}
	return u
}
