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
// shared and read-only, and the browser's is valid as long as the event
// is: until its next visit (see browser.PageResult).
package devtools

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/slab"
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
	ResourceOther      ResourceType = "Other" //lint:allow unusedapi completes Chrome's resource types; filterlist's tests match $other rules against it
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

// Event is implemented by a pointer to every devtools event; a trace
// holds its events by pointer.
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
func (*ScriptParsed) Method() string { return "Debugger.scriptParsed" }

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
func (*RequestWillBeSent) Method() string { return "Network.requestWillBeSent" }

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
func (*ResponseReceived) Method() string { return "Network.responseReceived" }

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
func (*RequestBlocked) Method() string { return "Network.requestBlocked" }

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
func (*FrameNavigated) Method() string { return "Page.frameNavigated" }

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
func (*WebSocketCreated) Method() string { return "Network.webSocketCreated" }

// WebSocketWillSendHandshakeRequest is emitted before the opening
// handshake is sent.
type WebSocketWillSendHandshakeRequest struct {
	SocketID SocketID          `json:"socketId"`
	Header   map[string]string `json:"header,omitempty"`
}

// Method implements Event.
func (*WebSocketWillSendHandshakeRequest) Method() string {
	return "Network.webSocketWillSendHandshakeRequest"
}

// WebSocketHandshakeResponseReceived is emitted when the handshake
// completes (Status 101) or fails.
type WebSocketHandshakeResponseReceived struct {
	SocketID SocketID `json:"socketId"`
	Status   int      `json:"status"`
}

// Method implements Event.
func (*WebSocketHandshakeResponseReceived) Method() string {
	return "Network.webSocketHandshakeResponseReceived"
}

// WebSocketFrameSent is emitted for every data frame sent by the page.
type WebSocketFrameSent struct {
	SocketID SocketID `json:"socketId"`
	Opcode   int      `json:"opcode"`
	Payload  []byte   `json:"payload"`
}

// Method implements Event.
func (*WebSocketFrameSent) Method() string { return "Network.webSocketFrameSent" }

// WebSocketFrameReceived is emitted for every data frame received.
type WebSocketFrameReceived struct {
	SocketID SocketID `json:"socketId"`
	Opcode   int      `json:"opcode"`
	Payload  []byte   `json:"payload"`
}

// Method implements Event.
func (*WebSocketFrameReceived) Method() string { return "Network.webSocketFrameReceived" }

// WebSocketClosed is emitted when the socket terminates.
type WebSocketClosed struct {
	SocketID SocketID `json:"socketId"`
	Code     int      `json:"code,omitempty"`
}

// Method implements Event.
func (*WebSocketClosed) Method() string { return "Network.webSocketClosed" }

// Trace is an ordered event log: the browser records a page load into
// it, then it is replayed into the inclusion-tree builder or serialized
// to JSON.
//
// Record copies each event into a slab of its kind that the trace keeps,
// so a trace reused across page loads via Reset records into storage
// earlier pages allocated. Reset invalidates every event previously
// reachable through Events — callers that reuse traces own the ordering
// between consumers finishing and the next Reset (see
// browser.PageResult).
type Trace struct {
	mu     sync.Mutex
	Events []Event

	slabs eventSlabs // guarded by mu

	// envs is MarshalJSON's reusable envelope scratch; guarded by mu.
	envs []envelope
}

// eventSlabs holds a trace's recorded events, one slab per kind.
type eventSlabs struct {
	scriptParsed      slab.Slab[ScriptParsed]
	requestWillBeSent slab.Slab[RequestWillBeSent]
	responseReceived  slab.Slab[ResponseReceived]
	requestBlocked    slab.Slab[RequestBlocked]
	frameNavigated    slab.Slab[FrameNavigated]
	wsCreated         slab.Slab[WebSocketCreated]
	wsHandshake       slab.Slab[WebSocketWillSendHandshakeRequest]
	wsHandshakeResp   slab.Slab[WebSocketHandshakeResponseReceived]
	wsFrameSent       slab.Slab[WebSocketFrameSent]
	wsFrameReceived   slab.Slab[WebSocketFrameReceived]
	wsClosed          slab.Slab[WebSocketClosed]
}

func (s *eventSlabs) reset() {
	s.scriptParsed.Reset()
	s.requestWillBeSent.Reset()
	s.responseReceived.Reset()
	s.requestBlocked.Reset()
	s.frameNavigated.Reset()
	s.wsCreated.Reset()
	s.wsHandshake.Reset()
	s.wsHandshakeResp.Reset()
	s.wsFrameSent.Reset()
	s.wsFrameReceived.Reset()
	s.wsClosed.Reset()
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Reset clears the trace for the next page load while keeping the event
// slabs (and marshal scratch) for reuse.
func (t *Trace) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.Events) // drop references so retired events can be collected
	t.Events = t.Events[:0]
	t.slabs.reset()
}

// Record appends a copy of ev held in the trace's slab for its kind.
// Record keeps nothing of ev itself, so the caller's event need not
// outlive the call.
func (t *Trace) Record(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.slabs
	var held Event
	switch e := ev.(type) {
	case *ScriptParsed:
		held = hold(&s.scriptParsed, e)
	case *RequestWillBeSent:
		held = hold(&s.requestWillBeSent, e)
	case *ResponseReceived:
		held = hold(&s.responseReceived, e)
	case *RequestBlocked:
		held = hold(&s.requestBlocked, e)
	case *FrameNavigated:
		held = hold(&s.frameNavigated, e)
	case *WebSocketCreated:
		held = hold(&s.wsCreated, e)
	case *WebSocketWillSendHandshakeRequest:
		held = hold(&s.wsHandshake, e)
	case *WebSocketHandshakeResponseReceived:
		held = hold(&s.wsHandshakeResp, e)
	case *WebSocketFrameSent:
		held = hold(&s.wsFrameSent, e)
	case *WebSocketFrameReceived:
		held = hold(&s.wsFrameReceived, e)
	case *WebSocketClosed:
		held = hold(&s.wsClosed, e)
	default:
		// Every Event is one of the kinds above; a panic here would not
		// name the culprit's type, as that would make ev escape.
		panic("devtools: Record of an event of no known kind")
	}
	t.Events = append(t.Events, held)
}

// hold copies *e into the slab and returns the slab's copy.
func hold[E any](s *slab.Slab[E], e *E) *E {
	p := s.New()
	*p = *e
	return p
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
	t.Reset()
	for _, env := range envs {
		ev, err := decodeEvent(env.Method, env.Params)
		if err != nil {
			return err
		}
		t.Record(ev)
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
	return ev, nil
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

// idPrefixes are the ID kinds' prefixes; smallIDs[k][n] is the ID
// numbered n of kind k, made once. A page load numbers from 1 again, so
// nearly every ID is one of them.
const idPrefixes = "FSRW"

var smallIDs = func() (t [len(idPrefixes)][256]string) {
	for k := range t {
		for n := range t[k] {
			t[k][n] = string(idPrefixes[k]) + strconv.Itoa(n)
		}
	}
	return t
}()

// next returns prefix + counter: one of smallIDs, or rendered on the
// reused scratch. Only the final string conversion allocates — that one
// allocation is the ID itself, which outlives the allocator inside
// trace events.
func (a *IDAllocator) next(prefix byte, counter *int64) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	*counter++
	if k := strings.IndexByte(idPrefixes, prefix); k >= 0 && *counter < int64(len(smallIDs[k])) {
		return smallIDs[k][*counter]
	}
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
