package labeler

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestLabelerConcurrentObservations is the race audit for the labeler's
// shared state, mirroring crawler/stats_race_test.go: many workers tag
// the same page (one rule group and one CDN snapshot under all of
// them) while another goroutine re-publishes the CDN map.
// Under -race (the Makefile's race gate) any unsynchronized access
// fails; the assertions catch a worker whose deltas differ from a
// single-threaded tagging of that page.
func TestLabelerConcurrentObservations(t *testing.T) {
	el, ep := testLists()
	l := New(el, ep)
	l.SetCDNMap(map[string]string{"d111.cloudfront.net": "adnet.example"})
	tree := buildTree(t)
	wantAA, wantNon, wantCDN := l.TagTree(tree)

	// A second writer re-publishes the CDN snapshot concurrently; none
	// of its hosts occur in the page, so the deltas must not move.
	cdnDone := make(chan struct{})
	go func() {
		defer close(cdnDone)
		for i := 0; i < 50; i++ {
			l.SetCDNMap(map[string]string{
				fmt.Sprintf("d%03d.cloudfront.net", i): "adnet.example",
			})
		}
	}()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				aa, non, cdn := l.TagTree(tree)
				if !reflect.DeepEqual(aa, wantAA) || !reflect.DeepEqual(non, wantNon) || !reflect.DeepEqual(cdn, wantCDN) {
					t.Errorf("concurrent TagTree = (%v, %v, %v), want (%v, %v, %v)", aa, non, cdn, wantAA, wantNon, wantCDN)
					return
				}
				_ = l.MapDomain("x.adnet.example")
			}
		}()
	}
	wg.Wait()
	<-cdnDone

	if l.MapDomain("d111.cloudfront.net") != "adnet.example" {
		t.Error("CDN mapping lost after concurrent SetCDNMap")
	}
}
