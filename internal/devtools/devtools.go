// Package devtools defines the instrumentation event vocabulary the
// synthetic browser emits, mirroring the Chrome Debugging Protocol domains
// the paper's crawler consumed (§3.1–3.2):
//
//   - Debugger.scriptParsed — script execution (inline and remote)
//   - Network.requestWillBeSent / responseReceived — resource requests
//   - Page.frameNavigated — iframe inclusions
//   - Network.webSocketCreated / webSocketWillSendHandshakeRequest /
//     webSocketHandshakeResponseReceived / webSocketFrameSent /
//     webSocketFrameReceived / webSocketClosed — WebSocket lifecycle
//
// A Trace records a page load's events in order; the inclusion-tree
// builder replays it.
//
// Events that introduce a URL-bearing resource (ScriptParsed,
// RequestWillBeSent, FrameNavigated, WebSocketCreated) also carry the
// emitter's parsed form of that URL in a Parsed field. It is not part
// of the wire form (`json:"-"`): a live trace hands it to consumers so
// they need not parse the string again, a decoded trace leaves it nil
// and consumers parse on demand. Like webrequest.Details.Parsed it is
// shared and read-only.
package devtools

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/urlutil"
)

// Typed identifiers. Using distinct string types catches cross-wiring of
// IDs (e.g. passing a frame ID where a script ID is expected) at compile
// time.
type (
	// FrameID identifies a frame (the top-level page or an iframe).
	FrameID string
	// ScriptID identifies one executed script instance.
	ScriptID string
	// RequestID identifies one network request.
	RequestID string
	// SocketID identifies one WebSocket connection.
	SocketID string
)

// ResourceType classifies a network request, mirroring CDP's
// Network.ResourceType values the pipeline cares about.
type ResourceType string

// Resource types.
const (
	ResourceDocument   ResourceType = "Document"
	ResourceScript     ResourceType = "Script"
	ResourceImage      ResourceType = "Image"
	ResourceStylesheet ResourceType = "Stylesheet"
	ResourceXHR        ResourceType = "XHR"
	ResourceSubFrame   ResourceType = "SubFrame"
	ResourceWebSocket  ResourceType = "WebSocket"
	ResourceOther      ResourceType = "Other"
)

// Initiator describes what caused a request or script execution, the
// information inclusion trees are built from. Exactly one of ScriptID or
// FrameID is the effective parent: if ScriptID is set, a script initiated
// the action; otherwise the frame's document parser did.
type Initiator struct {
	// Type is "script" or "parser".
	Type string `json:"type"`
	// ScriptID is the initiating script, when Type == "script".
	ScriptID ScriptID `json:"scriptId,omitempty"`
	// FrameID is the frame whose parser initiated the action, when
	// Type == "parser".
	FrameID FrameID `json:"frameId,omitempty"`
}

// ScriptInitiator builds a script-typed initiator.
func ScriptInitiator(id ScriptID) Initiator { return Initiator{Type: "script", ScriptID: id} }

// ParserInitiator builds a parser-typed initiator.
func ParserInitiator(id FrameID) Initiator { return Initiator{Type: "parser", FrameID: id} }

// Event is implemented by every devtools event.
type Event interface {
	// Method returns the CDP-style method name, e.g.
	// "Network.webSocketCreated".
	Method() string
}

// ScriptParsed is emitted when a script (inline or remote) begins
// executing in a frame. ParentScriptID is set when another script caused
// this script to load (dynamic inclusion).
type ScriptParsed struct {
	ScriptID  ScriptID  `json:"scriptId"`
	URL       string    `json:"url"`
	FrameID   FrameID   `json:"frameId"`
	Initiator Initiator `json:"initiator"`
	Inline    bool      `json:"inline,omitempty"`
	// Parsed is URL parsed (an inline script's is its document's: the
	// "#inline" marker is a fragment), or nil.
	Parsed *urlutil.URL `json:"-"`
}

// Method implements Event.
func (ScriptParsed) Method() string { return "Debugger.scriptParsed" }

// RequestWillBeSent is emitted before a network request leaves the
// browser (after extension interposition, so blocked requests never
// appear).
type RequestWillBeSent struct {
	RequestID RequestID    `json:"requestId"`
	URL       string       `json:"url"`
	Type      ResourceType `json:"type"`
	FrameID   FrameID      `json:"frameId"`
	Initiator Initiator    `json:"initiator"`
	// FirstPartyURL is the top-level page URL at the time of the request.
	FirstPartyURL string `json:"firstPartyUrl"`
	// Header captures request headers relevant to content analysis
	// (User-Agent, Cookie, Referer).
	Header map[string]string `json:"header,omitempty"`
	// Body is the request body for beacon/XHR uploads.
	Body []byte `json:"body,omitempty"`
	// Parsed is URL parsed, or nil.
	Parsed *urlutil.URL `json:"-"`
}

// Method implements Event.
func (RequestWillBeSent) Method() string { return "Network.requestWillBeSent" }

// ResponseReceived is emitted when response headers and body arrive.
type ResponseReceived struct {
	RequestID RequestID `json:"requestId"`
	URL       string    `json:"url"`
	Status    int       `json:"status"`
	MimeType  string    `json:"mimeType"`
	BodySize  int       `json:"bodySize"`
	// Body carries the (possibly truncated) response body for content
	// analysis.
	Body []byte `json:"body,omitempty"`
}

// Method implements Event.
func (ResponseReceived) Method() string { return "Network.responseReceived" }

// RequestBlocked is emitted when an extension cancels a request. Stock
// Chrome does not emit this; the synthetic browser does so ablation
// experiments can count what blockers stop. It never fires for WebSockets
// on browsers affected by the webRequest bug, since those requests are
// never dispatched to extensions at all.
type RequestBlocked struct {
	RequestID RequestID    `json:"requestId"`
	URL       string       `json:"url"`
	Type      ResourceType `json:"type"`
	FrameID   FrameID      `json:"frameId"`
	Initiator Initiator    `json:"initiator"`
	// Extension names the extension that cancelled the request.
	Extension string `json:"extension"`
	// Rule is the filter rule that matched.
	Rule string `json:"rule,omitempty"`
}

// Method implements Event.
func (RequestBlocked) Method() string { return "Network.requestBlocked" }

// FrameNavigated is emitted when a frame (top-level or iframe) commits a
// navigation.
type FrameNavigated struct {
	FrameID       FrameID   `json:"frameId"`
	ParentFrameID FrameID   `json:"parentFrameId,omitempty"`
	URL           string    `json:"url"`
	Initiator     Initiator `json:"initiator"`
	// Parsed is URL parsed, or nil.
	Parsed *urlutil.URL `json:"-"`
}

// Method implements Event.
func (FrameNavigated) Method() string { return "Page.frameNavigated" }

// WebSocketCreated is emitted when script constructs a WebSocket. The
// Initiator's script is the socket's parent in the inclusion tree
// (Figure 2 of the paper).
type WebSocketCreated struct {
	SocketID  SocketID  `json:"socketId"`
	URL       string    `json:"url"`
	FrameID   FrameID   `json:"frameId"`
	Initiator Initiator `json:"initiator"`
	// FirstPartyURL is the top-level page URL.
	FirstPartyURL string `json:"firstPartyUrl"`
	// Parsed is URL parsed, or nil.
	Parsed *urlutil.URL `json:"-"`
}

// Method implements Event.
func (WebSocketCreated) Method() string { return "Network.webSocketCreated" }

// WebSocketWillSendHandshakeRequest is emitted before the opening
// handshake is sent.
type WebSocketWillSendHandshakeRequest struct {
	SocketID SocketID          `json:"socketId"`
	Header   map[string]string `json:"header,omitempty"`
}

// Method implements Event.
func (WebSocketWillSendHandshakeRequest) Method() string {
	return "Network.webSocketWillSendHandshakeRequest"
}

// WebSocketHandshakeResponseReceived is emitted when the handshake
// completes (Status 101) or fails.
type WebSocketHandshakeResponseReceived struct {
	SocketID SocketID `json:"socketId"`
	Status   int      `json:"status"`
}

// Method implements Event.
func (WebSocketHandshakeResponseReceived) Method() string {
	return "Network.webSocketHandshakeResponseReceived"
}

// WebSocketFrameSent is emitted for every data frame sent by the page.
type WebSocketFrameSent struct {
	SocketID SocketID `json:"socketId"`
	Opcode   int      `json:"opcode"`
	Payload  []byte   `json:"payload"`
}

// Method implements Event.
func (WebSocketFrameSent) Method() string { return "Network.webSocketFrameSent" }

// WebSocketFrameReceived is emitted for every data frame received.
type WebSocketFrameReceived struct {
	SocketID SocketID `json:"socketId"`
	Opcode   int      `json:"opcode"`
	Payload  []byte   `json:"payload"`
}

// Method implements Event.
func (WebSocketFrameReceived) Method() string { return "Network.webSocketFrameReceived" }

// WebSocketClosed is emitted when the socket terminates.
type WebSocketClosed struct {
	SocketID SocketID `json:"socketId"`
	Code     int      `json:"code,omitempty"`
}

// Method implements Event.
func (WebSocketClosed) Method() string { return "Network.webSocketClosed" }

// Trace is an ordered event log: the browser records a page load into
// it, then it is replayed into the inclusion-tree builder or serialized
// to JSON.
//
// A Trace may be reused across page loads via Reset: the event slab and
// the MarshalJSON envelope scratch are retained, so steady-state
// recording appends into storage allocated by earlier pages. Reset
// invalidates everything previously reachable through Events — callers
// that reuse traces own the ordering between consumers finishing and
// the next Reset (see browser.PageResult).
type Trace struct {
	mu     sync.Mutex
	Events []Event

	// envs is MarshalJSON's reusable envelope scratch; guarded by mu.
	envs []envelope
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Reset clears the trace for the next page load while keeping the event
// slab (and marshal scratch) for reuse.
func (t *Trace) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.Events) // drop references so retired events can be collected
	t.Events = t.Events[:0]
}

// Record appends an event.
func (t *Trace) Record(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Events = append(t.Events, ev)
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.Events)
}

// envelope is the JSON wire form of one event.
type envelope struct {
	Method string          `json:"method"`
	Params json.RawMessage `json:"params"`
}

// MarshalJSON serializes the trace as an array of {method, params}
// envelopes, matching how CDP events appear on the wire.
func (t *Trace) MarshalJSON() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cap(t.envs) < len(t.Events) {
		t.envs = make([]envelope, 0, len(t.Events))
	}
	envs := t.envs[:0]
	defer func() {
		clear(envs[:cap(envs)])
		t.envs = envs[:0]
	}()
	for _, ev := range t.Events {
		params, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		envs = append(envs, envelope{Method: ev.Method(), Params: params})
	}
	return json.Marshal(envs)
}

// UnmarshalJSON parses a trace serialized by MarshalJSON.
func (t *Trace) UnmarshalJSON(data []byte) error {
	var envs []envelope
	if err := json.Unmarshal(data, &envs); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Events = t.Events[:0]
	for _, env := range envs {
		ev, err := decodeEvent(env.Method, env.Params)
		if err != nil {
			return err
		}
		t.Events = append(t.Events, ev)
	}
	return nil
}

func decodeEvent(method string, params json.RawMessage) (Event, error) {
	var ev Event
	switch method {
	case "Debugger.scriptParsed":
		ev = &ScriptParsed{}
	case "Network.requestWillBeSent":
		ev = &RequestWillBeSent{}
	case "Network.responseReceived":
		ev = &ResponseReceived{}
	case "Network.requestBlocked":
		ev = &RequestBlocked{}
	case "Page.frameNavigated":
		ev = &FrameNavigated{}
	case "Network.webSocketCreated":
		ev = &WebSocketCreated{}
	case "Network.webSocketWillSendHandshakeRequest":
		ev = &WebSocketWillSendHandshakeRequest{}
	case "Network.webSocketHandshakeResponseReceived":
		ev = &WebSocketHandshakeResponseReceived{}
	case "Network.webSocketFrameSent":
		ev = &WebSocketFrameSent{}
	case "Network.webSocketFrameReceived":
		ev = &WebSocketFrameReceived{}
	case "Network.webSocketClosed":
		ev = &WebSocketClosed{}
	default:
		return nil, fmt.Errorf("devtools: unknown event method %q", method)
	}
	if err := json.Unmarshal(params, ev); err != nil {
		return nil, fmt.Errorf("devtools: decode %s: %w", method, err)
	}
	return deref(ev), nil
}

// deref normalizes decoded pointer events to values so traces compare
// equal regardless of serialization round trips.
func deref(ev Event) Event {
	switch e := ev.(type) {
	case *ScriptParsed:
		return *e
	case *RequestWillBeSent:
		return *e
	case *ResponseReceived:
		return *e
	case *RequestBlocked:
		return *e
	case *FrameNavigated:
		return *e
	case *WebSocketCreated:
		return *e
	case *WebSocketWillSendHandshakeRequest:
		return *e
	case *WebSocketHandshakeResponseReceived:
		return *e
	case *WebSocketFrameSent:
		return *e
	case *WebSocketFrameReceived:
		return *e
	case *WebSocketClosed:
		return *e
	}
	return ev
}

// IDAllocator hands out sequential typed IDs for one page load. The
// rendered IDs ("F1", "S2", "R3", "W4", …) are pinned byte-for-byte by
// TestIDAllocatorGolden: they appear verbatim in stored datasets, so
// the formatting is a compatibility surface.
type IDAllocator struct {
	mu                             sync.Mutex
	frames, scripts, reqs, sockets int64
	scratch                        [24]byte // guarded by mu; strconv render buffer
}

// next renders prefix + counter on the reused scratch. Only the final
// string conversion allocates — that one allocation is the ID itself,
// which outlives the allocator inside trace events.
func (a *IDAllocator) next(prefix byte, counter *int64) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	*counter++
	buf := append(a.scratch[:0], prefix)
	buf = strconv.AppendInt(buf, *counter, 10)
	return string(buf)
}

// Reset rewinds all counters so a reused allocator numbers the next
// page load from 1 again, like a freshly constructed one.
func (a *IDAllocator) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.frames, a.scripts, a.reqs, a.sockets = 0, 0, 0, 0
}

// NextFrame allocates a frame ID.
func (a *IDAllocator) NextFrame() FrameID { return FrameID(a.next('F', &a.frames)) }

// NextScript allocates a script ID.
func (a *IDAllocator) NextScript() ScriptID { return ScriptID(a.next('S', &a.scripts)) }

// NextRequest allocates a request ID.
func (a *IDAllocator) NextRequest() RequestID { return RequestID(a.next('R', &a.reqs)) }

// NextSocket allocates a socket ID.
func (a *IDAllocator) NextSocket() SocketID { return SocketID(a.next('W', &a.sockets)) }
