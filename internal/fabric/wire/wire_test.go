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
		`{"v":1,"type":"hello","hello":{"worker":"w1"}}`},
	{"welcome", &Welcome{
		Crawl: CrawlConfig{
			Name: "pre-crawl-0", Era: "pre", CrawlIndex: 0, BrowserVersion: 57,
			Seed: 20170419, NumPublishers: 600, PagesPerSite: 15,
		},
		LeaseTTLMillis: 30000,
	},
		`{"v":1,"type":"welcome","welcome":{"crawl":{"name":"pre-crawl-0",` +
			`"era":"pre","crawlIndex":0,"browserVersion":57,"seed":20170419,` +
			`"numPublishers":600,"pagesPerSite":15},"leaseTtlMillis":30000}}`},
	{"grant", &Grant{
		Batch:   Batch{ID: "b0002", Seq: 2, Sites: []Site{{Domain: "a.com", Rank: 1}, {Domain: "b.com", Rank: 2}}},
		Attempt: 1,
	},
		`{"v":1,"type":"grant","grant":{"batch":{"id":"b0002","seq":2,` +
			`"sites":[{"domain":"a.com","rank":1},{"domain":"b.com","rank":2}]},"attempt":1}}`},
	{"heartbeat", &Heartbeat{Batch: "b0002"},
		`{"v":1,"type":"heartbeat","heartbeat":{"batch":"b0002"}}`},
	{"heartbeat_ack", &HeartbeatAck{Batch: "b0002", Valid: true},
		`{"v":1,"type":"heartbeat_ack","heartbeatAck":{"batch":"b0002","valid":true}}`},
	{"page", &Page{Batch: "b0002", Site: "a.com", Line: json.RawMessage(`{"site":"a.com","rank":1,"pageUrl":"http://a.com/"}`)},
		`{"v":1,"type":"page","page":{"batch":"b0002","site":"a.com",` +
			`"line":{"site":"a.com","rank":1,"pageUrl":"http://a.com/"}}}`},
	{"complete", &Complete{Batch: "b0002", Pages: 30, FailedSites: map[string]string{"b.com": "boom"}},
		`{"v":1,"type":"complete","complete":{"batch":"b0002","pages":30,` +
			`"failedSites":{"b.com":"boom"}}}`},
	{"fail", &Fail{Batch: "b0002", Err: "runner exploded"},
		`{"v":1,"type":"fail","fail":{"batch":"b0002","err":"runner exploded"}}`},
}

// goldenControl pins the payload-free frames.
var goldenControl = map[string]string{
	TypeLease:   `{"v":1,"type":"lease"}`,
	TypeWait:    `{"v":1,"type":"wait"}`,
	TypeDrained: `{"v":1,"type":"drained"}`,
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
		"unknown type":    `{"v":1,"type":"gossip"}`,
		"missing payload": `{"v":1,"type":"grant"}`,
		"not json":        `{]`,
	} {
		if _, err := Decode([]byte(raw)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// refDecode is Decode as it was before the page frame's cursor:
// encoding/json and the envelope checks. It is the oracle; production
// reaches encoding/json for a page frame only on its fallback branch.
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

// pageSeeds are page frames on both sides of the cursor's shape; '@'
// stands for a backslash.
var pageSeeds = []string{
	`{"v":1,"type":"page","page":{"batch":"b@u0026@u003c@u003e","site":"a.com","line":{"s":"x@u0026y@"@@@/@b@f@n@r@t@u2028é"}}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":[1,-0.5e+3,0,true,false,null,{},[],"",{"a":[{}]}]}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":null}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":"x"}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":{"a": 1}}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":{"a":1} }}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":{"a":"<&>"}}}`,
	"{\"v\":1,\"type\":\"page\",\"page\":{\"batch\":\"b1\",\"site\":\"a.com\",\"line\":\"\xe2\x80\xa8\xff\"}}",
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":{"a":1}},"hello":{"worker":"w"}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":{"a":1},"site":"b.com"}}`,
	`{"v":1,"type":"page","page":{"batch":"b@"1","site":"a.com","line":1}}`,
	`{"v":1,"type":"page","page":{"batch":"b@u00e9","site":"a.com","line":1}}`,
	`{"v":1,"type":"page","page":{"batch":"é","site":"a.com","line":1}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":01}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":1.}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":{"a":1,}}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":{"a":1}}}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com"}}`,
	`{"v":1,"type":"page","page":{}}`,
	`{"v":1,"type":"page","page":null}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":` + strings.Repeat("[", 70) + strings.Repeat("]", 70) + `}}`,
}

// TestPageFrameSeeds runs the page seeds as a plain table and pins
// which of them the cursor takes.
func TestPageFrameSeeds(t *testing.T) {
	fast := 0
	for _, seed := range pageSeeds {
		data := []byte(strings.ReplaceAll(seed, "@", `\`))
		checkFrame(t, data)
		if _, ok := decodePage(data); ok {
			fast++
		}
	}
	// The first four; the rest are encoding/json's to accept or refuse.
	if fast != 4 {
		t.Errorf("cursor took %d of %d page seeds, want 4", fast, len(pageSeeds))
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
		return // only the page frame has a hand encoder
	}
	got, err := Encode(p)
	want, refErr := json.Marshal(&frame{V: Version, Type: TypePage, Page: p})
	if errText(err) != errText(refErr) || !bytes.Equal(got, want) {
		t.Fatalf("Encode(%+v) = %q, %v; json.Marshal gives %q, %v", dec.Msg, got, err, want, refErr)
	}
}

// FuzzWireDecode feeds Decode hostile bytes, seeded from the golden
// encodings and the page seeds. It must never panic, and it must agree
// with encoding/json (refDecode) on every frame: the same frame
// accepted, the same error otherwise; a page frame it accepts must
// encode to json.Marshal's bytes. Any frame it accepts must also
// re-encode to bytes that decode to an equal frame. "Equal" is the
// wire's own equality — same type, same re-encoded bytes — because
// Decode keeps a page line's raw spacing and an empty failedSites map,
// both of which the encoder canonicalizes.
func FuzzWireDecode(f *testing.F) {
	for _, tc := range goldenFrames {
		f.Add([]byte(tc.golden))
	}
	for _, golden := range goldenControl {
		f.Add([]byte(golden))
	}
	for _, seed := range pageSeeds {
		f.Add([]byte(strings.ReplaceAll(seed, "@", `\`)))
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
