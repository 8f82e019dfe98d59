package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// goldenFrames pins the exact bytes of every payload frame type.
var goldenFrames = []struct {
	name   string
	msg    Message
	golden string
}{
	{"hello", &Hello{Worker: "w1"},
		`{"v":2,"type":"hello","hello":{"worker":"w1"}}`},
	{"welcome", &Welcome{
		Crawl: CrawlConfig{
			Name: "pre-crawl-0", Era: "pre", CrawlIndex: 0, BrowserVersion: 57,
			Seed: 20170419, NumPublishers: 600, PagesPerSite: 15,
		},
		LeaseTTLMillis: 30000,
	},
		`{"v":2,"type":"welcome","welcome":{"crawl":{"name":"pre-crawl-0",` +
			`"era":"pre","crawlIndex":0,"browserVersion":57,"seed":20170419,` +
			`"numPublishers":600,"pagesPerSite":15},"leaseTtlMillis":30000}}`},
	{"grant", &Grant{
		Batch:   Batch{ID: "b0002", Seq: 2, Sites: []Site{{Domain: "a.com", Rank: 1}, {Domain: "b.com", Rank: 2}}},
		Attempt: 1,
	},
		`{"v":2,"type":"grant","grant":{"batch":{"id":"b0002","seq":2,` +
			`"sites":[{"domain":"a.com","rank":1},{"domain":"b.com","rank":2}]},"attempt":1}}`},
	{"heartbeat", &Heartbeat{Batch: "b0002"},
		`{"v":2,"type":"heartbeat","heartbeat":{"batch":"b0002"}}`},
	{"heartbeat_ack", &HeartbeatAck{Batch: "b0002", Valid: true},
		`{"v":2,"type":"heartbeat_ack","heartbeatAck":{"batch":"b0002","valid":true}}`},
	{"page", &Page{Batch: "b0002", Site: "a.com", Line: []byte("WSCOLSG1\x03\x00")},
		`{"v":2,"type":"page","page":{"batch":"b0002","site":"a.com","line":"V1NDT0xTRzEDAA=="}}`},
	{"complete", &Complete{Batch: "b0002", Pages: 30, FailedSites: map[string]string{"b.com": "boom"}},
		`{"v":2,"type":"complete","complete":{"batch":"b0002","pages":30,` +
			`"failedSites":{"b.com":"boom"}}}`},
	{"fail", &Fail{Batch: "b0002", Err: "runner exploded"},
		`{"v":2,"type":"fail","fail":{"batch":"b0002","err":"runner exploded"}}`},
}

// goldenControl pins the payload-free frames.
var goldenControl = map[string]string{
	TypeLease:   `{"v":2,"type":"lease"}`,
	TypeWait:    `{"v":2,"type":"wait"}`,
	TypeDrained: `{"v":2,"type":"drained"}`,
}

// TestFrameGoldenEncodings checks every frame type against its golden
// bytes. These are cross-process compatibility bytes: a coordinator and
// a worker from different builds meet over them, so any intentional
// change must bump wire.Version — an accidental one fails here.
func TestFrameGoldenEncodings(t *testing.T) {
	for _, tc := range goldenFrames {
		data, err := Encode(tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(data) != tc.golden {
			t.Errorf("%s encoding drifted:\n got %s\nwant %s", tc.name, data, tc.golden)
		}
		dec, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if dec.Type != tc.msg.frameType() {
			t.Errorf("%s: decoded type %q", tc.name, dec.Type)
		}
		if !reflect.DeepEqual(dec.Msg, tc.msg) {
			t.Errorf("%s round trip mismatch:\n got %#v\nwant %#v", tc.name, dec.Msg, tc.msg)
		}
	}
}

// TestControlFrameGoldenEncodings pins the payload-free frames.
func TestControlFrameGoldenEncodings(t *testing.T) {
	for typ, golden := range goldenControl {
		data, err := EncodeControl(typ)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != golden {
			t.Errorf("%s encoding drifted: got %s want %s", typ, data, golden)
		}
		dec, err := Decode(data)
		if err != nil || dec.Type != typ || dec.Msg != nil {
			t.Errorf("%s decode = %+v, %v", typ, dec, err)
		}
	}
	if _, err := EncodeControl(TypeHello); err == nil {
		t.Error("hello accepted as control frame")
	}
}

// TestDecodeRejectsBadFrames: version, type, and payload validation.
func TestDecodeRejectsBadFrames(t *testing.T) {
	for name, raw := range map[string]string{
		"wrong version":   `{"v":9,"type":"lease"}`,
		"unknown type":    `{"v":2,"type":"gossip"}`,
		"missing payload": `{"v":2,"type":"grant"}`,
		"not json":        `{]`,
	} {
		if _, err := Decode([]byte(raw)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// refDecode is Decode restated: encoding/json and the envelope checks,
// with the payloads looked up in a table rather than switched on. It is
// the oracle the page seeds and the fuzzer hold Decode to.
func refDecode(data []byte) (Decoded, error) {
	var f frame
	if err := json.Unmarshal(data, &f); err != nil {
		return Decoded{}, fmt.Errorf("wire: malformed frame: %w", err)
	}
	if f.V != Version {
		return Decoded{}, fmt.Errorf("wire: protocol version %d, this build speaks v%d", f.V, Version)
	}
	payloads := map[string]Message{
		TypeHello: f.Hello, TypeWelcome: f.Welcome, TypeGrant: f.Grant, TypeHeartbeat: f.Heartbeat,
		TypeHeartbeatAck: f.HeartbeatAck, TypePage: f.Page, TypeComplete: f.Complete, TypeFail: f.Fail,
	}
	switch msg, ok := payloads[f.Type]; {
	case f.Type == TypeLease || f.Type == TypeWait || f.Type == TypeDrained:
		return Decoded{Type: f.Type}, nil
	case !ok:
		return Decoded{}, fmt.Errorf("wire: unknown frame type %q", f.Type)
	case reflect.ValueOf(msg).IsNil():
		return Decoded{}, missing(f.Type)
	default:
		return Decoded{Type: f.Type, Msg: msg}, nil
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// pageSeeds are v2 page frames around the line's base64 and the
// envelope, and whether Decode takes each; '@' stands for a backslash.
var pageSeeds = []struct {
	frame string
	ok    bool
}{
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":"V1NDT0xTRzE="}}`, true},
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":""}}`, true},
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":null}}`, true},
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com"}}`, true},
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":"V1NDT0xTRzE"}}`, false},   // no padding
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":"V1NDT0xTRzE=x"}}`, false}, // past the padding
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":"@u0056w=="}}`, true},      // a JSON escape in the base64
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":"V1 NDT0xTRzE="}}`, false},
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":"V1NDT0xT@nRzE="}}`, true}, // base64 skips newlines
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":{"site":"a.com"}}}`, false},
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":[1,2]}}`, true}, // json fills a []byte from numbers too
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":1}}`, false},
	{`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":{"site":"a.com","rank":1,"pageUrl":"p"}}}`, false}, // v1
	{`{"v":2,"type":"page","page":null}`, false},
	{`{"v":2,"type":"page","page":{}}`, true},
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":"QQ=="},"hello":{"worker":"w"}}`, true},
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":"QQ==","line":"Qg=="}}`, true},
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":"QQ==","Line":"Qg=="}}`, true},
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":"QQ=="}}}`, false},
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":"QQ=="} }`, true},
	{`{"v":2,"type":"page","page":{"batch":"b@u0026@"@@","site":"a.com","line":"QQ=="}}`, true},
	{"{\"v\":2,\"type\":\"page\",\"page\":{\"batch\":\"\xff\",\"site\":\"a.com\",\"line\":\"QQ==\"}}", true},
	{`{"v":2,"type":"page","page":{"batch":"b1","site":"a.com","line":"` + strings.Repeat("QUFB", 1000) + `"}}`, true},
}

// TestPageFrameSeeds runs the page seeds as a plain table and pins
// which of them Decode takes.
func TestPageFrameSeeds(t *testing.T) {
	for _, seed := range pageSeeds {
		data := []byte(strings.ReplaceAll(seed.frame, "@", `\`))
		checkFrame(t, data)
		if _, err := Decode(data); (err == nil) != seed.ok {
			t.Errorf("Decode(%.90s): error %v, want one %v", data, err, !seed.ok)
		}
	}
}

// checkFrame holds Decode to the oracle on one frame — same frame, same
// error — and Encode of an accepted frame to json.Marshal.
func checkFrame(t *testing.T, data []byte) {
	t.Helper()
	dec, err := Decode(data)
	ref, refErr := refDecode(data)
	if errText(err) != errText(refErr) || !reflect.DeepEqual(dec, ref) {
		t.Fatalf("Decode(%q) = %+v, %v; encoding/json gives %+v, %v", data, dec, err, ref, refErr)
	}
	if err != nil || dec.Msg == nil {
		return
	}
	p, ok := dec.Msg.(*Page)
	if !ok {
		return
	}
	got, err := Encode(p)
	want, refErr := json.Marshal(&frame{V: Version, Type: TypePage, Page: p})
	if errText(err) != errText(refErr) || !bytes.Equal(got, want) {
		t.Fatalf("Encode(%+v) = %q, %v; json.Marshal gives %q, %v", dec.Msg, got, err, want, refErr)
	}
}

// FuzzWireDecode feeds Decode hostile bytes, seeded from the golden
// encodings and the page seeds. It must never panic, and it must agree
// with refDecode on every frame: the same frame accepted, the same
// error otherwise; a page frame it accepts must encode to
// json.Marshal's bytes. Any frame it accepts must also re-encode to
// bytes that decode to an equal frame. "Equal" is the wire's own
// equality — same type, same re-encoded bytes — because Decode keeps
// an empty failedSites map, which the encoder drops.
func FuzzWireDecode(f *testing.F) {
	for _, tc := range goldenFrames {
		f.Add([]byte(tc.golden))
	}
	for _, golden := range goldenControl {
		f.Add([]byte(golden))
	}
	for _, seed := range pageSeeds {
		f.Add([]byte(strings.ReplaceAll(seed.frame, "@", `\`)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrame(t, data)
		dec, err := Decode(data)
		if err != nil {
			return
		}
		again := reencode(t, dec)
		back, err := Decode(again)
		if err != nil {
			t.Fatalf("accepted %q, but its re-encoding %q is refused: %v", data, again, err)
		}
		if back.Type != dec.Type || !bytes.Equal(reencode(t, back), again) {
			t.Fatalf("accepted %q as %+v; its re-encoding %q decodes to %+v", data, dec, again, back)
		}
	})
}

// reencode renders a decoded frame back to bytes.
func reencode(t *testing.T, dec Decoded) []byte {
	t.Helper()
	var data []byte
	var err error
	if dec.Msg == nil {
		data, err = EncodeControl(dec.Type)
	} else {
		data, err = Encode(dec.Msg)
	}
	if err != nil {
		t.Fatalf("decoded %+v does not re-encode: %v", dec, err)
	}
	return data
}
