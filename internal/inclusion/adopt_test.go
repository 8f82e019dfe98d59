package inclusion

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/browser"
	"repro/internal/devtools"
	"repro/internal/script"
	"repro/internal/urlutil"
	"repro/internal/webgen"
	"repro/internal/webserver"
)

// eventURL is the parsed URL a trace event carries for the node it
// creates, with the node's kind and ID.
func eventURL(ev devtools.Event) (kind Kind, id string, u *urlutil.URL, ok bool) {
	switch ev := ev.(type) {
	case *devtools.FrameNavigated:
		return KindFrame, string(ev.FrameID), ev.Parsed, true
	case *devtools.ScriptParsed:
		return KindScript, string(ev.ScriptID), ev.Parsed, true
	case *devtools.RequestWillBeSent:
		return KindRequest, string(ev.RequestID), ev.Parsed, true
	case *devtools.WebSocketCreated:
		return KindWebSocket, string(ev.SocketID), ev.Parsed, true
	}
	return 0, "", nil, false
}

// nodeFacts is everything the pipeline derives from a node's URL.
type nodeFacts struct {
	Kind                      Kind
	ID, URL, Host, Domain     string
	Scheme, Port, Path, Query string
	Canonical                 string
}

func factsOf(t *Tree) []nodeFacts {
	var out []nodeFacts
	t.Root.Walk(func(n *Node) bool {
		f := nodeFacts{Kind: n.Kind, ID: n.ID, URL: n.URL, Host: n.Host(), Domain: n.Domain()}
		if u := n.ParsedURL(); u != nil {
			f.Scheme, f.Port, f.Path, f.Query, f.Canonical = u.Scheme, u.Port, u.Path, u.Query, u.String()
		}
		out = append(out, f)
		return true
	})
	return out
}

// adoption counts what checkAdopted met.
type adoption struct{ urls, inline, sockets int }

// checkAdopted builds the page's tree twice — from the live trace, and
// from the trace round-tripped through JSON, which carries only strings
// — and requires that the live tree's nodes hold the very *urlutil.URL
// pointers the events carried (so nothing was parsed again) and that
// both trees answer every URL question the same way.
func checkAdopted(t *testing.T, page string, trace *devtools.Trace, builder *Builder, seen *adoption) {
	t.Helper()
	tree, err := builder.Build(trace)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*Node{}
	tree.Root.Walk(func(n *Node) bool {
		byID[n.Kind.String()+n.ID] = n
		return true
	})
	for _, ev := range trace.Events {
		kind, id, u, ok := eventURL(ev)
		if !ok {
			continue
		}
		n := byID[kind.String()+id]
		switch {
		case n == nil:
			t.Fatalf("%s: no node for %s %s", page, kind, id)
		case u == nil:
			t.Errorf("%s: %s %s (%s) carries no parsed URL", page, kind, id, n.URL)
		case n.ParsedURL() != u:
			t.Errorf("%s: %s %s (%s) parsed its URL again", page, kind, id, n.URL)
		default:
			seen.urls++
		}
		if n.Inline {
			seen.inline++
		}
		if kind == KindWebSocket {
			seen.sockets++
		}
	}

	data, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	var back devtools.Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, ev := range back.Events {
		if _, _, u, ok := eventURL(ev); ok && u != nil {
			t.Fatalf("%s: a decoded %s event carries a parsed URL", page, ev.Method())
		}
	}
	plain, err := Build(&back)
	if err != nil {
		t.Fatal(err)
	}
	live, decoded := factsOf(tree), factsOf(plain)
	if len(live) != len(decoded) {
		t.Fatalf("%s: %d nodes live, %d from the decoded trace", page, len(live), len(decoded))
	}
	for i := range live {
		if live[i] != decoded[i] {
			t.Errorf("%s: node %d\n live:    %+v\n decoded: %+v", page, i, live[i], decoded[i])
		}
	}
}

// TestNodeAdoptsParsedURL: urlutil.Parse is not reached from this
// package on a trace the browser produced, and a trace that lost its
// parsed URLs to serialization still builds the same tree.
func TestNodeAdoptsParsedURL(t *testing.T) {
	world := webgen.NewWorld(webgen.Config{Seed: 77, NumPublishers: 40, Era: webgen.EraPrePatch})
	server, err := webserver.Start(world)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	b := browser.New(browser.Config{
		Version: 57, Seed: 5,
		Fetch: server.Fetch, ResolveWS: server.Resolver(), DialWS: server.DialSocket,
	})
	builder := NewBuilder()
	var seen adoption
	for _, pub := range world.Publishers {
		res, err := b.Visit(context.Background(), "http://"+pub.Domain+"/")
		if err != nil {
			t.Fatal(err)
		}
		checkAdopted(t, pub.Domain, res.Trace, builder, &seen)
	}

	// The generated web has no inline scripts, whose node URL (document
	// URL + "#inline") is not what the event's parsed URL renders as, and
	// no page named without its trailing slash: one hand-written page
	// with both, a query string, and an iframe.
	inline := &script.Program{Ops: []script.Op{
		{Do: script.OpLoadImage, URL: "/px.gif?from=inline"},
		{Do: script.OpInsertIframe, URL: "http://frames.example/ad?slot=1"},
	}}
	hand := browser.New(browser.Config{
		Version: 57, Seed: 6,
		Fetch: func(u *urlutil.URL, _ []byte) (int, string, []byte, error) {
			if u.Host == "hand.example" && u.Path == "/" {
				return 200, "text/html", []byte(`<html><body><script>` + string(inline.MustEncode()) + `</script></body></html>`), nil
			}
			return 200, "text/html", []byte(`<html><body></body></html>`), nil
		},
	})
	res, err := hand.Visit(context.Background(), "http://hand.example?utm=1")
	if err != nil {
		t.Fatal(err)
	}
	checkAdopted(t, "hand.example", res.Trace, builder, &seen)

	if seen.urls < 500 || seen.inline == 0 || seen.sockets == 0 {
		t.Fatalf("adopted %d URLs, %d inline scripts, %d sockets: too thin", seen.urls, seen.inline, seen.sockets)
	}
}
