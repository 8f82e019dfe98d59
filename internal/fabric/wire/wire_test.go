package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
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
		`{"v":4,"type":"hello","hello":{"worker":"w1"}}`},
	{"welcome", &Welcome{
		Crawl: CrawlConfig{
			Name: "pre-crawl-0", Era: "pre", CrawlIndex: 0, BrowserVersion: 57,
			Seed: 20170419, NumPublishers: 600, PagesPerSite: 15,
		},
		LeaseTTLMillis: 30000,
	},
		`{"v":4,"type":"welcome","welcome":{"crawl":{"name":"pre-crawl-0",` +
			`"era":"pre","crawlIndex":0,"browserVersion":57,"seed":20170419,` +
			`"numPublishers":600,"pagesPerSite":15},"leaseTtlMillis":30000}}`},
	{"faulted welcome", &Welcome{
		Crawl: CrawlConfig{
			Name: "pre-crawl-0", Era: "pre", CrawlIndex: 0, BrowserVersion: 57,
			Seed: 20170419, NumPublishers: 600, PagesPerSite: 15,
			FaultProfile: "flaky", FaultSeed: 3,
		},
		LeaseTTLMillis: 30000,
	},
		`{"v":4,"type":"welcome","welcome":{"crawl":{"name":"pre-crawl-0",` +
			`"era":"pre","crawlIndex":0,"browserVersion":57,"seed":20170419,` +
			`"numPublishers":600,"pagesPerSite":15,"faultProfile":"flaky","faultSeed":3},` +
			`"leaseTtlMillis":30000}}`},
	{"grant", &Grant{
		Batch: Batch{ID: "b0002", Seq: 2, Sites: []Site{{Domain: "a.com", Rank: 1, Attempt: 1}, {Domain: "b.com", Rank: 2, Attempt: 3}}},
	},
		`{"v":4,"type":"grant","grant":{"batch":{"id":"b0002","seq":2,` +
			`"sites":[{"domain":"a.com","rank":1,"attempt":1},{"domain":"b.com","rank":2,"attempt":3}]}}}`},
	{"heartbeat", &Heartbeat{Batch: "b0002"},
		`{"v":4,"type":"heartbeat","heartbeat":{"batch":"b0002"}}`},
	{"heartbeat_ack", &HeartbeatAck{Batch: "b0002", Valid: true},
		`{"v":4,"type":"heartbeat_ack","heartbeatAck":{"batch":"b0002","valid":true}}`},
	{"page", &Page{Batch: "b0002", Site: "a.com", Line: []byte("WSCOLSG1\x03\x00")},
		"\x04\x05b0002\x05a.comWSCOLSG1\x03\x00"},
	{"complete", &Complete{Batch: "b0002", Pages: 30, FailedSites: map[string]string{"b.com": "boom"}},
		`{"v":4,"type":"complete","complete":{"batch":"b0002","pages":30,` +
			`"failedSites":{"b.com":"boom"}}}`},
	{"fail", &Fail{Batch: "b0002", Err: "runner exploded"},
		`{"v":4,"type":"fail","fail":{"batch":"b0002","err":"runner exploded"}}`},
}

// goldenControl pins the payload-free frames.
var goldenControl = map[string]string{
	TypeLease:   `{"v":4,"type":"lease"}`,
	TypeWait:    `{"v":4,"type":"wait"}`,
	TypeDrained: `{"v":4,"type":"drained"}`,
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
		"wrong version":    `{"v":9,"type":"lease"}`,
		"v3 frame":         `{"v":3,"type":"lease"}`,
		"unknown type":     `{"v":4,"type":"gossip"}`,
		"missing payload":  `{"v":4,"type":"grant"}`,
		"not json":         `{]`,
		"a JSON page":      `{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"V1NDT0xTRzE="}}`,
		"a v3 page":        `{"v":3,"type":"page","page":{"batch":"b1","site":"a.com","line":"V1NDT0xTRzE="}}`,
		"a v3 binary page": "\x03\x02b1\x05a.comWSCOLSG1",
	} {
		if _, err := Decode([]byte(raw)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// refDecode is Decode restated: a binary page frame read field by field
// off a bytes.Reader, and for JSON encoding/json and the envelope
// checks, with the payloads looked up in a table rather than switched
// on. It is the oracle the page seeds and the fuzzer hold Decode to.
func refDecode(data []byte) (Decoded, error) {
	if len(data) > 0 && data[0] != '{' {
		return refDecodePage(data)
	}
	var f frame
	if err := json.Unmarshal(data, &f); err != nil {
		return Decoded{}, fmt.Errorf("wire: malformed frame: %w", err)
	}
	if f.V != Version {
		return Decoded{}, fmt.Errorf("wire: protocol version %d, this build speaks v%d", f.V, Version)
	}
	payloads := map[string]Message{
		TypeHello: f.Hello, TypeWelcome: f.Welcome, TypeGrant: f.Grant, TypeHeartbeat: f.Heartbeat,
		TypeHeartbeatAck: f.HeartbeatAck, TypeComplete: f.Complete, TypeFail: f.Fail,
	}
	switch msg, ok := payloads[f.Type]; {
	case f.Type == TypeLease || f.Type == TypeWait || f.Type == TypeDrained:
		return Decoded{Type: f.Type}, nil
	case f.Type == TypePage:
		return Decoded{}, errJSONPage
	case !ok:
		return Decoded{}, fmt.Errorf("wire: unknown frame type %q", f.Type)
	case reflect.ValueOf(msg).IsNil():
		return Decoded{}, missing(f.Type)
	default:
		return Decoded{Type: f.Type, Msg: msg}, nil
	}
}

func refDecodePage(data []byte) (Decoded, error) {
	r := bytes.NewReader(data)
	if v, _ := r.ReadByte(); v != Version {
		return Decoded{}, fmt.Errorf("wire: protocol version %d, this build speaks v%d", v, Version)
	}
	var fields [2]string
	for i, what := range []string{"batch", "site"} {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len()) {
			return Decoded{}, fmt.Errorf("wire: page frame's %s is truncated", what)
		}
		b := make([]byte, n)
		_, _ = io.ReadFull(r, b)
		fields[i] = string(b)
	}
	if r.Len() == 0 {
		return Decoded{}, missing(TypePage)
	}
	return Decoded{Type: TypePage, Msg: &Page{Batch: fields[0], Site: fields[1], Line: data[len(data)-r.Len():]}}, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// pageSeeds are v4 page frames and frames on the far side of each of
// the page decoder's refusals, and whether Decode takes each.
var pageSeeds = []struct {
	frame string
	ok    bool
}{
	{"\x04\x02b1\x05a.comWSCOLSG1", true},
	{"\x04\x00\x00x", true},                                     // empty batch and site
	{"\x04\x02b1\x05a.com", false},                              // no block
	{"\x04\x02b1\x05a.co", false},                               // truncated in the site
	{"\x04\x02b", false},                                        // truncated in the batch
	{"\x04", false},                                             // the version byte alone
	{"\x04\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01b", false},    // a batch length past any frame
	{"\x04\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80", false}, // a uvarint that overflows
	{"\x04\x82\x00b1\x05a.comW", true},                          // a non-minimal uvarint
	{"\x04\x02\xff\xfe\x05a.comW", true},                        // bytes that are not UTF-8
	{"\x05\x02b1\x05a.comW", false},                             // a later version
	{" {\"v\":4,\"type\":\"lease\"}", false},                    // JSON after a space
	{"\x04\x02b1\x05a.com" + strings.Repeat("QUFB", 1000), true},
}

// jsonPageSeeds are page frames in JSON, the form v2 and v3 sent, as
// v4 would read them; '@' stands for a backslash. Decode refuses every
// one: a page frame is binary.
var jsonPageSeeds = []string{
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"V1NDT0xTRzE="}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":""}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":null}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com"}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"V1NDT0xTRzE"}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"V1NDT0xTRzE=x"}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"@u0056w=="}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"V1 NDT0xTRzE="}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"V1NDT0xT@nRzE="}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":{"site":"a.com"}}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":[1,2]}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":1}}`,
	`{"v":1,"type":"page","page":{"batch":"b1","site":"a.com","line":{"site":"a.com","rank":1,"pageUrl":"p"}}}`,
	`{"v":4,"type":"page","page":null}`,
	`{"v":4,"type":"page","page":{}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"QQ=="},"hello":{"worker":"w"}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"QQ==","line":"Qg=="}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"QQ==","Line":"Qg=="}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"QQ=="}}}`,
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"QQ=="} }`,
	`{"v":4,"type":"page","page":{"batch":"b@u0026@"@@","site":"a.com","line":"QQ=="}}`,
	"{\"v\":3,\"type\":\"page\",\"page\":{\"batch\":\"\xff\",\"site\":\"a.com\",\"line\":\"QQ==\"}}",
	`{"v":4,"type":"page","page":{"batch":"b1","site":"a.com","line":"` + strings.Repeat("QUFB", 1000) + `"}}`,
}

// TestPageFrameSeeds runs the page seeds as a plain table and pins
// which of them Decode takes, and that it takes no JSON page seed.
func TestPageFrameSeeds(t *testing.T) {
	for _, seed := range pageSeeds {
		data := []byte(seed.frame)
		checkFrame(t, data)
		if _, err := Decode(data); (err == nil) != seed.ok {
			t.Errorf("Decode(%q): error %v, want one %v", data, err, !seed.ok)
		}
	}
	for _, seed := range jsonPageSeeds {
		data := []byte(strings.ReplaceAll(seed, "@", `\`))
		checkFrame(t, data)
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode(%.90s) accepted a JSON page frame", data)
		}
	}
}

// TestPageFrameAliasesItsBytes: a decoded page's Line is the frame's
// block in place, not a copy, and the frame's first byte is the
// version, never a JSON object's brace.
func TestPageFrameAliasesItsBytes(t *testing.T) {
	data, err := Encode(&Page{Batch: "g1", Site: "a.com", Line: []byte("block")})
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != Version || Version == '{' {
		t.Fatalf("page frame starts %q", data[0])
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	line := dec.Msg.(*Page).Line
	data[len(data)-1] = '!'
	if string(line) != "bloc!" {
		t.Errorf("Line %q does not alias the frame", line)
	}
}

// checkFrame holds Decode to the oracle on one frame — same frame, same
// error — and the page frame's encoding to its decoding: an accepted
// page encodes to a frame that decodes to the same page.
func checkFrame(t *testing.T, data []byte) {
	t.Helper()
	dec, err := Decode(data)
	ref, refErr := refDecode(data)
	if errText(err) != errText(refErr) || !reflect.DeepEqual(dec, ref) {
		t.Fatalf("Decode(%q) = %+v, %v; the reference gives %+v, %v", data, dec, err, ref, refErr)
	}
	if err != nil || dec.Msg == nil {
		return
	}
	p, ok := dec.Msg.(*Page)
	if !ok {
		return
	}
	got, err := Encode(p)
	if err != nil || !bytes.Equal(got, AppendPage([]byte{}, p)) {
		t.Fatalf("Encode(%+v) = %q, %v; AppendPage gives %q", p, got, err, AppendPage(nil, p))
	}
	if back, err := Decode(got); err != nil || !reflect.DeepEqual(back, dec) {
		t.Fatalf("page %+v encodes to %q, which decodes to %+v, %v", p, got, back, err)
	}
}

// FuzzWireDecode feeds Decode hostile bytes, seeded from the golden
// encodings, the page seeds and the JSON page seeds. It must never panic, and it must agree
// with refDecode on every frame: the same frame accepted, the same
// error otherwise; a page frame it accepts must encode to a frame that
// decodes to it again. Any frame it accepts must also re-encode to
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
		f.Add([]byte(seed.frame))
	}
	for _, seed := range jsonPageSeeds {
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
