// Package inclusion builds inclusion trees from devtools traces,
// following Arshad et al. as adopted by the paper (§3.1): nodes are
// frames, scripts, requests, and WebSockets, and each node's parent is
// the resource that semantically caused it — a WebSocket is a child of
// the JavaScript that constructed it (Figure 2), not of whatever URL sat
// in the Referer header.
//
// The package also implements the paper's attribution queries: the
// chain of ancestors for any socket, and whether any ancestor belongs to
// a given domain set (the "A&A socket" test of §3.2).
package inclusion

import (
	"fmt"
	"strings"

	"repro/internal/devtools"
	"repro/internal/urlutil"
)

// Kind discriminates inclusion-tree node types.
type Kind int

// Node kinds.
const (
	KindFrame Kind = iota
	KindScript
	KindRequest
	KindWebSocket
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFrame:
		return "frame"
	case KindScript:
		return "script"
	case KindRequest:
		return "request"
	case KindWebSocket:
		return "websocket"
	}
	return "unknown"
}

// WSFrame is one data frame observed on a socket.
type WSFrame struct {
	Opcode  int
	Payload []byte
}

// Node is one inclusion-tree node.
type Node struct {
	Kind Kind
	// ID is the devtools identifier (frame/script/request/socket ID).
	ID string
	// URL is the resource URL.
	URL string
	// Type is the resource type for request nodes.
	Type devtools.ResourceType
	// Inline marks inline scripts.
	Inline bool

	Parent   *Node
	Children []*Node

	// Request/response annotation (request nodes).
	Status   int
	MimeType string
	RespBody []byte
	ReqBody  []byte
	Header   map[string]string

	// WebSocket annotation (socket nodes).
	HandshakeHeader map[string]string
	HandshakeStatus int
	Sent            []WSFrame
	Received        []WSFrame
	CloseCode       int

	// FirstParty is the top-level page URL at creation time.
	FirstParty string

	// URL-derivation memo. Attribution queries (chains, A&A ancestor
	// tests, table building) ask for a node's host and domain many
	// times; the URL is immutable after the node is built, so it is
	// parsed at most once — and not at all when the trace event carried
	// the browser's own parse (apply adopts it). Trees are built and
	// consumed by one goroutine per page, so the memos need no lock.
	urlParsed    bool
	domainParsed bool
	urlMemo      *urlutil.URL // nil when URL is unparsable
	urlDomain    string

	// Filter-list verdict memo (see Verdict).
	verdict     verdictState
	verdictHost string
}

// verdictState is the filter-list verdict kept on a node.
type verdictState uint8

const (
	verdictUnknown verdictState = iota
	verdictAllowed
	verdictBlocked
)

// adoptURL installs u as the node's parsed URL. u must be what parsing
// n.URL yields, fragment aside; a nil u leaves the node to parse on
// demand.
func (n *Node) adoptURL(u *urlutil.URL) {
	if u != nil {
		n.urlParsed, n.urlMemo = true, u
	}
}

// ParsedURL returns the node URL parsed once and memoized, or nil for
// an unparsable URL. Callers must treat the result as read-only: it is
// shared across every query against this node, and with the browser
// when the trace carried it.
func (n *Node) ParsedURL() *urlutil.URL {
	if !n.urlParsed {
		n.urlParsed = true
		if u, err := urlutil.Parse(n.URL); err == nil {
			n.urlMemo = u
		}
	}
	return n.urlMemo
}

// Domain returns the node URL's registrable domain ("" if unparsable).
func (n *Node) Domain() string {
	if !n.domainParsed {
		n.domainParsed = true
		if u := n.ParsedURL(); u != nil {
			n.urlDomain = u.RegistrableDomain()
		}
	}
	return n.urlDomain
}

// Host returns the node URL's host ("" if unparsable).
func (n *Node) Host() string {
	if u := n.ParsedURL(); u != nil {
		return u.Host
	}
	return ""
}

// Verdict returns the filter-list verdict remembered for this node
// under pageHost, if any. A node's URL and resource type never change
// and its page has one host, so whether the lists block it is a
// constant of the page: the labeler computes it once (SetVerdict) and
// every chain walk through the node reads it back. The memo answers
// only for the page host it was stored under, and Builder.Build clears
// it with the rest of the node.
func (n *Node) Verdict(pageHost string) (blocked, ok bool) {
	if n.verdict == verdictUnknown || n.verdictHost != pageHost {
		return false, false
	}
	return n.verdict == verdictBlocked, true
}

// SetVerdict remembers the filter-list verdict for this node under
// pageHost.
func (n *Node) SetVerdict(pageHost string, blocked bool) {
	n.verdict, n.verdictHost = verdictAllowed, pageHost
	if blocked {
		n.verdict = verdictBlocked
	}
}

// Chain returns the ancestor path from the root down to (and including)
// this node.
func (n *Node) Chain() []*Node {
	return n.AppendChain(nil)
}

// AppendChain is the scratch-reusing form of Chain: it appends the
// root→n path to dst (growing it as needed) and returns the result.
// Passing a recycled dst[:0] makes repeated chain walks allocation-free
// once the scratch has grown to the deepest chain.
func (n *Node) AppendChain(dst []*Node) []*Node {
	start := len(dst)
	for cur := n; cur != nil; cur = cur.Parent {
		dst = append(dst, cur)
	}
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Walk visits the subtree in depth-first order.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// Tree is one page load's inclusion tree.
type Tree struct {
	// Root is the top-level frame node.
	Root *Node
	// PageURL is the top-level document URL.
	PageURL string

	frames  map[devtools.FrameID]*Node
	scripts map[devtools.ScriptID]*Node
	reqs    map[devtools.RequestID]*Node
	sockets map[devtools.SocketID]*Node

	// Blocked holds request nodes cancelled by extensions (attached to
	// the tree like ordinary requests, flagged by Status == -1).
	Blocked []*Node

	// newNode allocates tree nodes: fresh heap nodes for the one-shot
	// Build path, arena slots for Builder.
	newNode func() *Node
}

// Sockets returns all WebSocket nodes in creation order.
func (t *Tree) Sockets() []*Node {
	return t.AppendKind(nil, KindWebSocket)
}

// Requests returns all HTTP request nodes in creation order.
func (t *Tree) Requests() []*Node {
	return t.AppendKind(nil, KindRequest)
}

// AppendKind appends every node of the given kind, in creation order,
// to dst and returns it — the scratch-reusing form of Sockets and
// Requests.
func (t *Tree) AppendKind(dst []*Node, kind Kind) []*Node {
	t.Root.Walk(func(n *Node) bool {
		if n.Kind == kind {
			dst = append(dst, n)
		}
		return true
	})
	return dst
}

// Build replays a devtools trace into an inclusion tree. It returns an
// error on traces that reference unknown parents, which indicates an
// instrumentation bug. Every node is freshly allocated and the tree
// lives as long as the caller keeps it; Builder is the pooled
// alternative for per-page throughput.
func Build(trace *devtools.Trace) (*Tree, error) {
	t := &Tree{
		frames:  map[devtools.FrameID]*Node{},
		scripts: map[devtools.ScriptID]*Node{},
		reqs:    map[devtools.RequestID]*Node{},
		sockets: map[devtools.SocketID]*Node{},
		newNode: func() *Node { return new(Node) },
	}
	return t.replay(trace)
}

// replay applies the trace's events to an initialized tree.
func (t *Tree) replay(trace *devtools.Trace) (*Tree, error) {
	for i, ev := range trace.Events {
		if err := t.apply(ev); err != nil {
			return nil, fmt.Errorf("inclusion: event %d (%s): %w", i, ev.Method(), err)
		}
	}
	if t.Root == nil {
		return nil, fmt.Errorf("inclusion: trace has no top-level frame")
	}
	return t, nil
}

// builderChunk is the arena block size. A typical page tree is well
// under one block, so steady-state builds touch no allocator at all.
const builderChunk = 256

// Builder builds inclusion trees out of a reused node arena with
// per-page reset: chunks of nodes, the tree's index maps, and each
// node's child/frame slices are all retained across builds and recycled
// instead of reallocated.
//
// Ownership rule (enforced by the pipeline's differential and
// allocation-regression tests): the *Tree returned by Build — and every
// *Node reachable from it — is valid only until the next Build call on
// the same Builder. Callers that need a tree to outlive the next page
// must use the package-level Build. A Builder is not safe for
// concurrent use; analysis.Recorder hands them out via a sync.Pool.
type Builder struct {
	chunks [][]Node
	used   int
	tree   Tree
}

// NewBuilder returns a Builder with an empty arena; storage grows to
// the largest page seen and is retained from then on.
func NewBuilder() *Builder {
	b := &Builder{}
	b.tree = Tree{
		frames:  map[devtools.FrameID]*Node{},
		scripts: map[devtools.ScriptID]*Node{},
		reqs:    map[devtools.RequestID]*Node{},
		sockets: map[devtools.SocketID]*Node{},
		newNode: b.alloc,
	}
	return b
}

// alloc hands out the next arena node, growing by one chunk when the
// arena is exhausted. Returned nodes are zero-valued except for the
// child/frame slice capacity retained by reset.
func (b *Builder) alloc() *Node {
	ci, off := b.used/builderChunk, b.used%builderChunk
	if ci == len(b.chunks) {
		b.chunks = append(b.chunks, make([]Node, builderChunk))
	}
	b.used++
	return &b.chunks[ci][off]
}

// reset recycles every node handed out since the last reset, keeping
// the slice capacity each node accumulated (children, WS frames) but
// dropping all references so retired page data can be collected.
func (b *Builder) reset() {
	for i := 0; i < b.used; i++ {
		n := &b.chunks[i/builderChunk][i%builderChunk]
		children, sent, received := n.Children, n.Sent, n.Received
		clear(children)
		clear(sent)
		clear(received)
		*n = Node{}
		n.Children = children[:0]
		n.Sent = sent[:0]
		n.Received = received[:0]
	}
	b.used = 0
	t := &b.tree
	t.Root = nil
	t.PageURL = ""
	clear(t.Blocked)
	t.Blocked = t.Blocked[:0]
	clear(t.frames)
	clear(t.scripts)
	clear(t.reqs)
	clear(t.sockets)
}

// Build replays a devtools trace into the builder's reused tree. The
// reset happens on entry, so a tree stays fully usable until the next
// Build even across error returns.
func (b *Builder) Build(trace *devtools.Trace) (*Tree, error) {
	b.reset()
	return b.tree.replay(trace)
}

// parentFor resolves an initiator to its tree node.
func (t *Tree) parentFor(init devtools.Initiator, frame devtools.FrameID) (*Node, error) {
	if init.Type == "script" {
		if n, ok := t.scripts[init.ScriptID]; ok {
			return n, nil
		}
		return nil, fmt.Errorf("unknown initiator script %s", init.ScriptID)
	}
	id := init.FrameID
	if id == "" {
		id = frame
	}
	if n, ok := t.frames[id]; ok {
		return n, nil
	}
	return nil, fmt.Errorf("unknown initiator frame %s", id)
}

func attach(parent, child *Node) {
	child.Parent = parent
	parent.Children = append(parent.Children, child)
}

func (t *Tree) apply(ev devtools.Event) error {
	switch ev := ev.(type) {
	case devtools.FrameNavigated:
		n := t.newNode()
		n.Kind, n.ID, n.URL = KindFrame, string(ev.FrameID), ev.URL
		n.adoptURL(ev.Parsed)
		if ev.ParentFrameID == "" {
			if t.Root != nil {
				return fmt.Errorf("second top-level frame %s", ev.FrameID)
			}
			t.Root = n
			t.PageURL = ev.URL
		} else {
			parent, err := t.parentFor(ev.Initiator, ev.ParentFrameID)
			if err != nil {
				return err
			}
			attach(parent, n)
		}
		t.frames[ev.FrameID] = n

	case devtools.ScriptParsed:
		parent, err := t.parentFor(ev.Initiator, ev.FrameID)
		if err != nil {
			return err
		}
		n := t.newNode()
		n.Kind, n.ID, n.URL, n.Inline = KindScript, string(ev.ScriptID), ev.URL, ev.Inline
		n.adoptURL(ev.Parsed)
		attach(parent, n)
		t.scripts[ev.ScriptID] = n

	case devtools.RequestWillBeSent:
		parent, err := t.parentFor(ev.Initiator, ev.FrameID)
		if err != nil {
			return err
		}
		n := t.newNode()
		n.Kind, n.ID, n.URL = KindRequest, string(ev.RequestID), ev.URL
		n.Type, n.Header, n.ReqBody, n.FirstParty = ev.Type, ev.Header, ev.Body, ev.FirstPartyURL
		n.adoptURL(ev.Parsed)
		attach(parent, n)
		t.reqs[ev.RequestID] = n

	case devtools.ResponseReceived:
		if n, ok := t.reqs[ev.RequestID]; ok {
			n.Status = ev.Status
			n.MimeType = ev.MimeType
			n.RespBody = ev.Body
		}

	case devtools.RequestBlocked:
		parent, err := t.parentFor(ev.Initiator, ev.FrameID)
		if err != nil {
			return err
		}
		n := t.newNode()
		n.Kind, n.ID, n.URL = KindRequest, string(ev.RequestID), ev.URL
		n.Type, n.Status = ev.Type, -1
		attach(parent, n)
		t.Blocked = append(t.Blocked, n)

	case devtools.WebSocketCreated:
		parent, err := t.parentFor(ev.Initiator, ev.FrameID)
		if err != nil {
			return err
		}
		n := t.newNode()
		n.Kind, n.ID, n.URL = KindWebSocket, string(ev.SocketID), ev.URL
		n.Type, n.FirstParty = devtools.ResourceWebSocket, ev.FirstPartyURL
		n.adoptURL(ev.Parsed)
		attach(parent, n)
		t.sockets[ev.SocketID] = n

	case devtools.WebSocketWillSendHandshakeRequest:
		if n, ok := t.sockets[ev.SocketID]; ok {
			n.HandshakeHeader = ev.Header
		}
	case devtools.WebSocketHandshakeResponseReceived:
		if n, ok := t.sockets[ev.SocketID]; ok {
			n.HandshakeStatus = ev.Status
		}
	case devtools.WebSocketFrameSent:
		if n, ok := t.sockets[ev.SocketID]; ok {
			n.Sent = append(n.Sent, WSFrame{Opcode: ev.Opcode, Payload: ev.Payload})
		}
	case devtools.WebSocketFrameReceived:
		if n, ok := t.sockets[ev.SocketID]; ok {
			n.Received = append(n.Received, WSFrame{Opcode: ev.Opcode, Payload: ev.Payload})
		}
	case devtools.WebSocketClosed:
		if n, ok := t.sockets[ev.SocketID]; ok {
			n.CloseCode = ev.Code
		}
	}
	return nil
}

// InitiatorDomain returns the registrable domain of a socket's direct
// parent resource (the script that created it, or the frame document for
// parser-attributed sockets). This is the "initiator" of Tables 2 and 4.
func InitiatorDomain(sock *Node) string {
	if sock.Parent == nil {
		return ""
	}
	return sock.Parent.Domain()
}

// ReceiverDomain returns the registrable domain of the socket endpoint
// (the "receiver" of Tables 3 and 4).
func ReceiverDomain(sock *Node) string { return sock.Domain() }

// ChainDomains returns the registrable domains along the socket's
// ancestor chain, root first, excluding the socket itself.
func ChainDomains(sock *Node) []string {
	chain := sock.Chain()
	var out []string
	for _, n := range chain[:len(chain)-1] {
		if d := n.Domain(); d != "" {
			out = append(out, d)
		}
	}
	return out
}

// AnyAncestorIn reports whether any ancestor resource (excluding the
// node itself) has a registrable domain in the set — the §3.2 rule for
// calling a socket "included by an A&A resource".
func AnyAncestorIn(n *Node, domains map[string]bool) bool {
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		if domains[cur.Domain()] {
			return true
		}
	}
	return false
}

// CrossOrigin reports whether the socket endpoint is third-party
// relative to the page (the >90% statistic of §4.1).
func CrossOrigin(sock *Node) bool {
	page, err := urlutil.Parse(sock.FirstParty)
	if err != nil {
		return false
	}
	return urlutil.IsThirdParty(page.Host, sock.Host())
}

// RenderASCII renders the tree in the style of the paper's Figure 2, one
// node per line with box-drawing indentation.
func (t *Tree) RenderASCII() string {
	var b strings.Builder
	var walk func(n *Node, prefix string, last bool)
	walk = func(n *Node, prefix string, last bool) {
		connector := "├─ "
		childPrefix := prefix + "│  "
		if last {
			connector = "└─ "
			childPrefix = prefix + "   "
		}
		if n.Parent == nil {
			connector = ""
			childPrefix = ""
		}
		label := n.URL
		if label == "" {
			label = "(" + n.Kind.String() + ")"
		}
		fmt.Fprintf(&b, "%s%s[%s] %s\n", prefix, connector, n.Kind, label)
		for i, c := range n.Children {
			walk(c, childPrefix, i == len(n.Children)-1)
		}
	}
	walk(t.Root, "", true)
	return b.String()
}
