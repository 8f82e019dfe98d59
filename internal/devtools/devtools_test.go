package devtools

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		&FrameNavigated{FrameID: "F1", URL: "http://pub.example/", Initiator: ParserInitiator("F1")},
		&ScriptParsed{ScriptID: "S1", URL: "http://pub.example/app.js", FrameID: "F1", Initiator: ParserInitiator("F1")},
		&ScriptParsed{ScriptID: "S2", URL: "http://ads.example/ads.js", FrameID: "F1", Initiator: ScriptInitiator("S1")},
		&RequestWillBeSent{RequestID: "R1", URL: "http://ads.example/ads.js", Type: ResourceScript, FrameID: "F1", Initiator: ScriptInitiator("S1"), FirstPartyURL: "http://pub.example/"},
		&ResponseReceived{RequestID: "R1", URL: "http://ads.example/ads.js", Status: 200, MimeType: "application/javascript", BodySize: 123},
		&WebSocketCreated{SocketID: "W1", URL: "ws://adnet.example/data.ws", FrameID: "F1", Initiator: ScriptInitiator("S2"), FirstPartyURL: "http://pub.example/"},
		&WebSocketWillSendHandshakeRequest{SocketID: "W1", Header: map[string]string{"Origin": "http://pub.example"}},
		&WebSocketHandshakeResponseReceived{SocketID: "W1", Status: 101},
		&WebSocketFrameSent{SocketID: "W1", Opcode: 1, Payload: []byte(`{"ua":"Mozilla/5.0"}`)},
		&WebSocketFrameReceived{SocketID: "W1", Opcode: 1, Payload: []byte(`<html>ad</html>`)},
		&WebSocketClosed{SocketID: "W1", Code: 1000},
		&RequestBlocked{RequestID: "R2", URL: "http://tracker.example/px.gif", Type: ResourceImage, FrameID: "F1", Initiator: ScriptInitiator("S2"), Extension: "adblock", Rule: "||tracker.example^"},
	}
}

func TestEventMethods(t *testing.T) {
	want := []string{
		"Page.frameNavigated",
		"Debugger.scriptParsed",
		"Debugger.scriptParsed",
		"Network.requestWillBeSent",
		"Network.responseReceived",
		"Network.webSocketCreated",
		"Network.webSocketWillSendHandshakeRequest",
		"Network.webSocketHandshakeResponseReceived",
		"Network.webSocketFrameSent",
		"Network.webSocketFrameReceived",
		"Network.webSocketClosed",
		"Network.requestBlocked",
	}
	for i, ev := range sampleEvents() {
		if ev.Method() != want[i] {
			t.Errorf("event %d Method = %q, want %q", i, ev.Method(), want[i])
		}
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := NewTrace()
	for _, ev := range sampleEvents() {
		tr.Record(ev)
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("round trip length %d, want %d", len(back.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if !reflect.DeepEqual(tr.Events[i], back.Events[i]) {
			t.Errorf("event %d mismatch:\n got %#v\nwant %#v", i, back.Events[i], tr.Events[i])
		}
	}
}

func TestTraceUnknownMethod(t *testing.T) {
	var tr Trace
	err := json.Unmarshal([]byte(`[{"method":"Bogus.event","params":{}}]`), &tr)
	if err == nil {
		t.Error("unknown method accepted")
	}
}

func TestIDAllocator(t *testing.T) {
	var a IDAllocator
	if a.NextFrame() != "F1" || a.NextFrame() != "F2" {
		t.Error("frame IDs not sequential")
	}
	if a.NextScript() != "S1" || a.NextRequest() != "R1" || a.NextSocket() != "W1" {
		t.Error("typed IDs wrong")
	}
	// Concurrent allocation must not duplicate.
	var wg sync.WaitGroup
	seen := make(chan SocketID, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen <- a.NextSocket()
		}()
	}
	wg.Wait()
	close(seen)
	uniq := map[SocketID]bool{}
	for id := range seen {
		if uniq[id] {
			t.Fatalf("duplicate socket ID %s", id)
		}
		uniq[id] = true
	}
}

func TestInitiatorConstructors(t *testing.T) {
	si := ScriptInitiator("S7")
	if si.Type != "script" || si.ScriptID != "S7" || si.FrameID != "" {
		t.Errorf("ScriptInitiator = %+v", si)
	}
	pi := ParserInitiator("F3")
	if pi.Type != "parser" || pi.FrameID != "F3" || pi.ScriptID != "" {
		t.Errorf("ParserInitiator = %+v", pi)
	}
}

// TestIDAllocatorGolden byte-pins every allocator prefix against the
// fmt.Sprintf forms the scratch-buffer renderer replaced. These IDs
// appear verbatim in spooled datasets: a one-byte drift here silently
// forks every downstream golden file.
func TestIDAllocatorGolden(t *testing.T) {
	var a IDAllocator
	// Cross the 1→2 and 2→3 digit boundaries plus a deep-page tail.
	for i := 1; i <= 1500; i++ {
		want := fmt.Sprintf("F%d", i)
		if got := string(a.NextFrame()); got != want {
			t.Fatalf("frame %d: got %q, want %q", i, got, want)
		}
		if got, want := string(a.NextScript()), fmt.Sprintf("S%d", i); got != want {
			t.Fatalf("script %d: got %q, want %q", i, got, want)
		}
		if got, want := string(a.NextRequest()), fmt.Sprintf("R%d", i); got != want {
			t.Fatalf("request %d: got %q, want %q", i, got, want)
		}
		if got, want := string(a.NextSocket()), fmt.Sprintf("W%d", i); got != want {
			t.Fatalf("socket %d: got %q, want %q", i, got, want)
		}
	}
	// Reset restarts every counter at 1, exactly like a fresh allocator.
	a.Reset()
	if got := string(a.NextFrame()); got != "F1" {
		t.Fatalf("after Reset: got %q, want F1", got)
	}
}

// TestTraceReuseAllocs pins the steady-state allocation profile of the
// pooled event path: once a reused Trace's slab has grown to page size,
// recording an event allocates at most the event's own boxing — the slab
// and envelope scratch are reused.
func TestTraceReuseAllocs(t *testing.T) {
	tr := NewTrace()
	ev := &WebSocketFrameSent{SocketID: "W1", Payload: []byte("x")}
	// Warm the slab past any realistic page's event count.
	for i := 0; i < 4096; i++ {
		tr.Record(ev)
	}
	tr.Reset()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			tr.Record(ev)
		}
		tr.Reset()
	})
	// 64 emits may box 64 interface values but must not regrow the slab.
	if allocs > 64 {
		t.Errorf("steady-state trace reuse: %.1f allocs per 64-event page, want <= 64", allocs)
	}
}
