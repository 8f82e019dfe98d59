package inclusion

import (
	"strings"
	"testing"

	"repro/internal/devtools"
)

// figure2Trace reproduces the paper's Figure 2 scenario:
//
//	pub/index.html
//	├─ pub/script.js
//	│  └─ ads/script.js
//	│     ├─ ads/image.img
//	│     └─ adnet/data.ws       (WebSocket child of the script)
//	└─ tracker/script.js
func figure2Trace() *devtools.Trace {
	tr := devtools.NewTrace()
	for _, ev := range []devtools.Event{
		&devtools.FrameNavigated{FrameID: "F1", URL: "http://pub.com/index.html", Initiator: devtools.ParserInitiator("F1")},
		&devtools.ScriptParsed{ScriptID: "S1", URL: "http://pub.com/script.js", FrameID: "F1", Initiator: devtools.ParserInitiator("F1")},
		&devtools.RequestWillBeSent{RequestID: "R1", URL: "http://ads.com/script.js", Type: devtools.ResourceScript, FrameID: "F1", Initiator: devtools.ScriptInitiator("S1"), FirstPartyURL: "http://pub.com/index.html"},
		&devtools.ResponseReceived{RequestID: "R1", Status: 200, MimeType: "application/javascript", BodySize: 10},
		&devtools.ScriptParsed{ScriptID: "S2", URL: "http://ads.com/script.js", FrameID: "F1", Initiator: devtools.ScriptInitiator("S1")},
		&devtools.RequestWillBeSent{RequestID: "R2", URL: "http://ads.com/image.img", Type: devtools.ResourceImage, FrameID: "F1", Initiator: devtools.ScriptInitiator("S2"), FirstPartyURL: "http://pub.com/index.html"},
		&devtools.WebSocketCreated{SocketID: "W1", URL: "ws://adnet.com/data.ws", FrameID: "F1", Initiator: devtools.ScriptInitiator("S2"), FirstPartyURL: "http://pub.com/index.html"},
		&devtools.WebSocketWillSendHandshakeRequest{SocketID: "W1", Header: map[string]string{"User-Agent": "Mozilla/5.0", "Origin": "http://pub.com"}},
		&devtools.WebSocketHandshakeResponseReceived{SocketID: "W1", Status: 101},
		&devtools.WebSocketFrameSent{SocketID: "W1", Opcode: 1, Payload: []byte("ua=Mozilla/5.0")},
		&devtools.WebSocketFrameReceived{SocketID: "W1", Opcode: 1, Payload: []byte("<div>ad</div>")},
		&devtools.WebSocketClosed{SocketID: "W1", Code: 1000},
		&devtools.ScriptParsed{ScriptID: "S3", URL: "http://tracker.com/script.js", FrameID: "F1", Initiator: devtools.ParserInitiator("F1")},
	} {
		tr.Record(ev)
	}
	return tr
}

func TestBuildFigure2(t *testing.T) {
	tree, err := Build(figure2Trace())
	if err != nil {
		t.Fatal(err)
	}
	if tree.PageURL != "http://pub.com/index.html" {
		t.Errorf("PageURL = %q", tree.PageURL)
	}
	socks := tree.Sockets()
	if len(socks) != 1 {
		t.Fatalf("sockets = %d", len(socks))
	}
	ws := socks[0]

	// The defining property of Figure 2: the socket is a child of the
	// ad script, which is a child of the pub script.
	chain := ws.Chain()
	var urls []string
	for _, n := range chain {
		urls = append(urls, n.URL)
	}
	want := []string{
		"http://pub.com/index.html",
		"http://pub.com/script.js",
		"http://ads.com/script.js",
		"ws://adnet.com/data.ws",
	}
	if len(urls) != len(want) {
		t.Fatalf("chain = %v", urls)
	}
	for i := range want {
		if urls[i] != want[i] {
			t.Errorf("chain[%d] = %q, want %q", i, urls[i], want[i])
		}
	}

	if got := ws.Parent.Domain(); got != "ads.com" {
		t.Errorf("initiator domain = %q", got)
	}
	if got := ws.Domain(); got != "adnet.com" {
		t.Errorf("receiver domain = %q", got)
	}
	if !CrossOrigin(ws) {
		t.Error("socket should be cross-origin")
	}
	if ws.HandshakeStatus != 101 || len(ws.Sent) != 1 || len(ws.Received) != 1 || ws.CloseCode != 1000 {
		t.Errorf("socket annotation: %+v", ws)
	}
}

func TestChainDomains(t *testing.T) {
	tree, _ := Build(figure2Trace())
	ws := tree.Sockets()[0]
	got := ChainDomains(ws)
	want := []string{"pub.com", "pub.com", "ads.com"}
	if len(got) != len(want) {
		t.Fatalf("ChainDomains = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ChainDomains[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRefererMisattribution demonstrates why the paper uses inclusion
// trees: Referer-based attribution credits the socket to the first
// party, hiding the A&A script that actually created it (§3.1).
func TestRefererMisattribution(t *testing.T) {
	tree, _ := Build(figure2Trace())
	ws := tree.Sockets()[0]
	refererAttribution := "pub.com" // the Referer header names the page
	inclusionAttribution := ws.Parent.Domain()
	if inclusionAttribution == refererAttribution {
		t.Error("inclusion attribution should differ from Referer attribution here")
	}
	if inclusionAttribution != "ads.com" {
		t.Errorf("inclusion attribution = %q", inclusionAttribution)
	}
}

func TestBuildRejectsUnknownParents(t *testing.T) {
	tr := devtools.NewTrace()
	tr.Record(&devtools.FrameNavigated{FrameID: "F1", URL: "http://p.com/", Initiator: devtools.ParserInitiator("F1")})
	tr.Record(&devtools.WebSocketCreated{SocketID: "W1", URL: "ws://x.com/s", FrameID: "F1", Initiator: devtools.ScriptInitiator("S404")})
	if _, err := Build(tr); err == nil {
		t.Error("unknown initiator script accepted")
	}

	tr2 := devtools.NewTrace()
	tr2.Record(&devtools.ScriptParsed{ScriptID: "S1", URL: "http://p.com/a.js", FrameID: "F9", Initiator: devtools.ParserInitiator("F9")})
	if _, err := Build(tr2); err == nil {
		t.Error("trace without top frame accepted")
	}
}

func TestBlockedRequestsTracked(t *testing.T) {
	tr := devtools.NewTrace()
	tr.Record(&devtools.FrameNavigated{FrameID: "F1", URL: "http://p.com/", Initiator: devtools.ParserInitiator("F1")})
	tr.Record(&devtools.ScriptParsed{ScriptID: "S1", URL: "http://p.com/a.js", FrameID: "F1", Initiator: devtools.ParserInitiator("F1")})
	tr.Record(&devtools.RequestBlocked{RequestID: "R1", URL: "http://tracker.com/t.js", Type: devtools.ResourceScript, FrameID: "F1", Initiator: devtools.ScriptInitiator("S1"), Extension: "abp", Rule: "||tracker.com^"})
	tree, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Blocked) != 1 || tree.Blocked[0].Status != -1 {
		t.Fatalf("blocked = %v", tree.Blocked)
	}
	if tree.Blocked[0].Parent.ID != "S1" {
		t.Error("blocked request not attached to initiating script")
	}
}

func TestIframeSubtree(t *testing.T) {
	tr := devtools.NewTrace()
	tr.Record(&devtools.FrameNavigated{FrameID: "F1", URL: "http://p.com/", Initiator: devtools.ParserInitiator("F1")})
	tr.Record(&devtools.FrameNavigated{FrameID: "F2", ParentFrameID: "F1", URL: "http://ads.com/frame.html", Initiator: devtools.ParserInitiator("F1")})
	tr.Record(&devtools.ScriptParsed{ScriptID: "S1", URL: "http://ads.com/inner.js", FrameID: "F2", Initiator: devtools.ParserInitiator("F2")})
	tr.Record(&devtools.WebSocketCreated{SocketID: "W1", URL: "ws://rt.com/s", FrameID: "F2", Initiator: devtools.ScriptInitiator("S1"), FirstPartyURL: "http://p.com/"})
	tree, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	ws := tree.Sockets()[0]
	domains := ChainDomains(ws)
	// Chain passes through the iframe: p.com, ads.com (frame), ads.com (script).
	if len(domains) != 3 || domains[1] != "ads.com" {
		t.Errorf("iframe chain = %v", domains)
	}
}

func TestRenderASCII(t *testing.T) {
	tree, _ := Build(figure2Trace())
	out := tree.RenderASCII()
	for _, want := range []string{"pub.com/index.html", "ads.com/script.js", "ws://adnet.com/data.ws", "└─"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The websocket line must be indented deeper than its parent script.
	lines := strings.Split(out, "\n")
	var scriptIndent, wsIndent int
	for _, l := range lines {
		if strings.Contains(l, "ads.com/script.js") {
			scriptIndent = strings.Index(l, "[")
		}
		if strings.Contains(l, "adnet.com") {
			wsIndent = strings.Index(l, "[")
		}
	}
	if wsIndent <= scriptIndent {
		t.Errorf("websocket not nested under script (indent %d vs %d)", wsIndent, scriptIndent)
	}
}

func TestRequestsQuery(t *testing.T) {
	tree, _ := Build(figure2Trace())
	reqs := tree.AppendKind(nil, KindRequest)
	if len(reqs) != 2 {
		t.Fatalf("requests = %d", len(reqs))
	}
	if reqs[0].Status != 200 || reqs[0].MimeType != "application/javascript" {
		t.Error("response annotation lost")
	}
}
