package inclusion

// Property tests: inclusion trees built from randomly generated (but
// causally valid) traces must uphold structural invariants regardless
// of event interleaving.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/devtools"
)

// genTrace builds a random causally-valid trace: every initiator
// referenced by an event was emitted earlier.
func genTrace(rng *rand.Rand) *devtools.Trace {
	tr := devtools.NewTrace()
	var alloc devtools.IDAllocator

	rootFrame := alloc.NextFrame()
	tr.Record(&devtools.FrameNavigated{FrameID: rootFrame, URL: "http://pub.example/", Initiator: devtools.ParserInitiator(rootFrame)})

	frames := []devtools.FrameID{rootFrame}
	var scripts []devtools.ScriptID

	randInitiator := func() devtools.Initiator {
		if len(scripts) > 0 && rng.Intn(2) == 0 {
			return devtools.ScriptInitiator(scripts[rng.Intn(len(scripts))])
		}
		return devtools.ParserInitiator(frames[rng.Intn(len(frames))])
	}
	randFrame := func() devtools.FrameID { return frames[rng.Intn(len(frames))] }

	n := 5 + rng.Intn(40)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0: // script
			id := alloc.NextScript()
			tr.Record(&devtools.ScriptParsed{
				ScriptID: id, URL: fmt.Sprintf("http://s%d.example/w.js", rng.Intn(8)),
				FrameID: randFrame(), Initiator: randInitiator(),
			})
			scripts = append(scripts, id)
		case 1: // request
			id := alloc.NextRequest()
			tr.Record(&devtools.RequestWillBeSent{
				RequestID: id, URL: fmt.Sprintf("http://r%d.example/x", rng.Intn(8)),
				Type: devtools.ResourceImage, FrameID: randFrame(), Initiator: randInitiator(),
				FirstPartyURL: "http://pub.example/",
			})
			if rng.Intn(2) == 0 {
				tr.Record(&devtools.ResponseReceived{RequestID: id, Status: 200, MimeType: "image/gif"})
			}
		case 2: // iframe
			id := alloc.NextFrame()
			tr.Record(&devtools.FrameNavigated{
				FrameID: id, ParentFrameID: randFrame(),
				URL: fmt.Sprintf("http://f%d.example/frame", rng.Intn(8)), Initiator: randInitiator(),
			})
			frames = append(frames, id)
		case 3: // websocket lifecycle
			id := alloc.NextSocket()
			tr.Record(&devtools.WebSocketCreated{
				SocketID: id, URL: fmt.Sprintf("ws://w%d.example/s", rng.Intn(8)),
				FrameID: randFrame(), Initiator: randInitiator(),
				FirstPartyURL: "http://pub.example/",
			})
			for k := 0; k < rng.Intn(3); k++ {
				tr.Record(&devtools.WebSocketFrameSent{SocketID: id, Opcode: 1, Payload: []byte("x")})
			}
			tr.Record(&devtools.WebSocketClosed{SocketID: id, Code: 1000})
		case 4: // blocked request
			id := alloc.NextRequest()
			tr.Record(&devtools.RequestBlocked{
				RequestID: id, URL: "http://blocked.example/x",
				Type: devtools.ResourceScript, FrameID: randFrame(), Initiator: randInitiator(),
				Extension: "abp",
			})
		}
	}
	return tr
}

func TestTreeInvariantsProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := genTrace(rng)
		tree, err := Build(tr)
		if err != nil {
			t.Logf("seed %d: build failed: %v", seed, err)
			return false
		}

		// Invariant 1: every node except the root has a parent, and
		// parent/child links are mutually consistent.
		okLinks := true
		tree.Root.Walk(func(n *Node) bool {
			if n != tree.Root && n.Parent == nil {
				okLinks = false
				return false
			}
			for _, c := range n.Children {
				if c.Parent != n {
					okLinks = false
					return false
				}
			}
			return true
		})
		if !okLinks {
			t.Logf("seed %d: parent/child links inconsistent", seed)
			return false
		}

		// Invariant 2: every chain starts at the root and ends at the
		// node itself, with strictly increasing depth.
		okChains := true
		tree.Root.Walk(func(n *Node) bool {
			chain := n.Chain()
			if chain[0] != tree.Root || chain[len(chain)-1] != n {
				okChains = false
				return false
			}
			for i := 1; i < len(chain); i++ {
				if chain[i].Parent != chain[i-1] {
					okChains = false
					return false
				}
			}
			return true
		})
		if !okChains {
			t.Logf("seed %d: chain structure broken", seed)
			return false
		}

		// Invariant 3: node counts match event counts per kind.
		var wantSockets, wantScripts, wantFrames, wantReqs, wantBlocked int
		for _, ev := range tr.Events {
			switch ev.(type) {
			case *devtools.WebSocketCreated:
				wantSockets++
			case *devtools.ScriptParsed:
				wantScripts++
			case *devtools.FrameNavigated:
				wantFrames++
			case *devtools.RequestWillBeSent:
				wantReqs++
			case *devtools.RequestBlocked:
				wantBlocked++
			}
		}
		var gotSockets, gotScripts, gotFrames, gotReqs int
		tree.Root.Walk(func(n *Node) bool {
			switch n.Kind {
			case KindWebSocket:
				gotSockets++
			case KindScript:
				gotScripts++
			case KindFrame:
				gotFrames++
			case KindRequest:
				if n.Status != -1 {
					gotReqs++
				}
			}
			return true
		})
		if gotSockets != wantSockets || gotScripts != wantScripts ||
			gotFrames != wantFrames || gotReqs != wantReqs || len(tree.Blocked) != wantBlocked {
			t.Logf("seed %d: counts mismatch: sockets %d/%d scripts %d/%d frames %d/%d reqs %d/%d blocked %d/%d",
				seed, gotSockets, wantSockets, gotScripts, wantScripts,
				gotFrames, wantFrames, gotReqs, wantReqs, len(tree.Blocked), wantBlocked)
			return false
		}

		// Invariant 4: socket frame annotations survived.
		for _, ws := range tree.Sockets() {
			if ws.CloseCode != 1000 {
				t.Logf("seed %d: socket close code lost", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestTraceSerializationPreservesTree: a trace that round-trips through
// JSON builds an identical tree (node-for-node URLs and kinds).
func TestTraceSerializationPreservesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := genTrace(rng)
	before, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back devtools.Trace
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	after, err := Build(&back)
	if err != nil {
		t.Fatal(err)
	}
	var a, b []string
	before.Root.Walk(func(n *Node) bool { a = append(a, n.Kind.String()+"|"+n.URL); return true })
	after.Root.Walk(func(n *Node) bool { b = append(b, n.Kind.String()+"|"+n.URL); return true })
	if len(a) != len(b) {
		t.Fatalf("node counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("node %d: %s vs %s", i, a[i], b[i])
		}
	}
}
