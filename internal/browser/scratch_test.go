package browser

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/webgen"
)

// TestScratchReuseMatchesFreshScratch is the browser's reuse oracle: a
// Browser recycling its per-page scratch from visit to visit loads the
// same trace (every event, headers included) and the same links as a
// twin given a fresh visitScratch before each Visit. A reset that
// forgets a map or a slab leaks one page's state into the next and
// fails here.
func TestScratchReuseMatchesFreshScratch(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	reused, fresh := e.browser(57), e.browser(57)
	pages, links, sockets := 0, 0, 0
	for _, p := range e.world.Publishers[:12] {
		for page := 0; page <= 3 && page <= p.NumPages; page++ {
			url := "http://" + p.Domain + "/"
			if page > 0 {
				url = "http://" + p.Domain + "/page/" + itoa(page)
			}
			got, gotErr := reused.Visit(context.Background(), url)
			fresh.scratch = newVisitScratch()
			want, wantErr := fresh.Visit(context.Background(), url)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: err %v, fresh scratch %v", url, gotErr, wantErr)
			}
			gotTrace, err := json.Marshal(got.Trace)
			if err != nil {
				t.Fatal(err)
			}
			wantTrace, err := json.Marshal(want.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Fatalf("%s: trace differs from a fresh scratch's:\n got %s\nwant %s", url, gotTrace, wantTrace)
			}
			if !slices.Equal(got.Links, want.Links) {
				t.Fatalf("%s: links %q, fresh scratch %q", url, got.Links, want.Links)
			}
			if got.Blocked != want.Blocked || got.NetErrors != want.NetErrors {
				t.Fatalf("%s: blocked/net errors %d/%d, fresh scratch %d/%d", url, got.Blocked, got.NetErrors, want.Blocked, want.NetErrors)
			}
			pages++
			links += len(got.Links)
			sockets += bytes.Count(gotTrace, []byte(`"Network.webSocketCreated"`))
		}
	}
	if links == 0 || sockets == 0 {
		t.Fatalf("too quiet to compare: %d pages, %d links, %d sockets", pages, links, sockets)
	}
	t.Logf("%d pages, %d links, %d sockets", pages, links, sockets)
}

// TestFailedVisitDropsDOMSource: a visit whose document fails to load
// leaves no DOM-exfiltration source behind. The last page's document
// lives in the DOM arena the failed visit has already recycled, so a
// source still pointing at it would serialize nodes the next page owns.
func TestFailedVisitDropsDOMSource(t *testing.T) {
	e := newEnv(t, webgen.EraPrePatch)
	b := e.browser(57)
	if _, err := b.Visit(context.Background(), "http://"+e.world.Publishers[0].Domain+"/"); err != nil {
		t.Fatal(err)
	}
	if b.state.DOMSource == nil {
		t.Fatal("a loaded page left no DOM source")
	}
	if _, err := b.Visit(context.Background(), "http://not-in-world.example/"); err == nil {
		t.Fatal("a page on an unknown host loaded")
	}
	if b.state.DOMSource != nil {
		t.Errorf("after a failed visit the DOM source still serializes %q", b.state.DOMSource())
	}
}
