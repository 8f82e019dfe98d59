package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
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

// FuzzWireDecode feeds Decode hostile bytes, seeded from the golden
// encodings. It must never panic, and any frame it accepts must
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
	f.Fuzz(func(t *testing.T, data []byte) {
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
