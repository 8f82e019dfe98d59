package script

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleProgram() *Program {
	return &Program{Ops: []Op{
		Include("http://adnet.example/ads.js"),
		OpenWS("ws://tracker.example/collect", []MessageSpec{
			{Kinds: []string{"ua", "cookie"}},
			{Kinds: []string{"screen", "viewport", "orientation"}},
		}, 2),
		Image("http://adnet.example/pixel.gif"),
		Beacon("http://stats.example/b", []MessageSpec{{Kinds: []string{"ua"}}}),
		Iframe("http://ads.example/slot.html"),
	}}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := sampleProgram()
	body, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(body), Marker) {
		t.Error("encoded body missing marker prefix")
	}
	if !strings.Contains(string(body), "use strict") {
		t.Error("camouflage boilerplate missing")
	}
	got, err := Decode(string(body))
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("Decode returned nil for marked body")
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestDecodePlainScript(t *testing.T) {
	got, err := Decode("function f(){return 42;} window.onload = f;")
	if err != nil || got != nil {
		t.Errorf("plain script: got (%v, %v), want (nil, nil)", got, err)
	}
}

func TestDecodeCorruptProgram(t *testing.T) {
	cases := []string{
		Marker + "\nvar x = 1;",                                                  // no assignment
		Marker + "\nvar __program = {not json};\n",                               // bad JSON
		Marker + "\nvar __program = {\"ops\":[{\"do\":\"launch_missiles\"}]};\n", // unknown op
	}
	for _, body := range cases {
		if _, err := Decode(body); err == nil {
			t.Errorf("Decode accepted corrupt body %q", body[:40])
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Program{
		{Ops: []Op{{Do: OpIncludeScript}}},                          // missing URL
		{Ops: []Op{{Do: OpOpenWebSocket, URL: "http://x.example"}}}, // wrong scheme
		{Ops: []Op{{Do: "nonsense", URL: "http://x.example"}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid program", i)
		}
	}
	good := Program{Ops: []Op{OpenWS("wss://x.example/s", nil, 0)}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	p := &Program{Ops: []Op{{Do: "bogus"}}}
	if _, err := p.Encode(); err == nil {
		t.Error("Encode accepted invalid program")
	}
}

func TestConstructors(t *testing.T) {
	if op := Include("u"); op.Do != OpIncludeScript || op.URL != "u" {
		t.Error("Include")
	}
	if op := OpenWS("ws://u/s", nil, 3); op.Do != OpOpenWebSocket || op.Expect != 3 {
		t.Error("OpenWS")
	}
	if op := Image("u"); op.Do != OpLoadImage {
		t.Error("Image")
	}
	if op := Beacon("u", nil); op.Do != OpHTTPBeacon {
		t.Error("Beacon")
	}
	if op := Iframe("u"); op.Do != OpInsertIframe {
		t.Error("Iframe")
	}
}

// TestRoundTripProperty: arbitrary well-formed programs survive
// encode/decode.
func TestRoundTripProperty(t *testing.T) {
	kinds := []string{"ua", "cookie", "ip", "dom", "screen", "language"}
	f := func(n uint8, wsCount uint8, kindSel []uint8) bool {
		p := &Program{}
		for i := 0; i < int(n%6); i++ {
			p.Ops = append(p.Ops, Include("http://s.example/a.js"))
		}
		for i := 0; i < int(wsCount%4); i++ {
			var specs []MessageSpec
			for _, k := range kindSel {
				specs = append(specs, MessageSpec{Kinds: []string{kinds[int(k)%len(kinds)]}})
			}
			p.Ops = append(p.Ops, OpenWS("ws://r.example/collect", specs, int(wsCount)%3))
		}
		body, err := p.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(string(body))
		if err != nil || got == nil {
			return false
		}
		return reflect.DeepEqual(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustEncode of invalid program did not panic")
		}
	}()
	(&Program{Ops: []Op{{Do: "bad"}}}).MustEncode()
}
