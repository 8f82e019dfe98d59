package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public function. Start/End are nanoseconds since the
// tracer was created; Parent indexes the span that was open when this
// one began (-1 for a root); Page is the crawled page the call served
// (-1 when it served none), so all spans of one page share it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Page   int    `json:"page"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
// The traced paths are sequential, but the fabric worker calls RunBatch
// and emit from different goroutines, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string, page int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), End: -1, Parent: parent, Page: page})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d (%s) closed out of order", id, t.spans[id].Name))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = now
}

// relabel renames an open or closed span and tags its page; the crawl
// trace uses it for spans whose meaning is known only when they end.
func (t *tracer) relabel(id int, name string, page int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Name = name
	t.spans[id].Page = page
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover. Because children nest inside their parents, the
// self times of a root and everything under it add up to the root's
// duration exactly.
func selfTimes(spans []span) map[string]int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// spanTotals sums, per span name, full durations and call counts.
func spanTotals(spans []span) (dur map[string]int64, calls map[string]int64) {
	dur, calls = map[string]int64{}, map[string]int64{}
	for _, s := range spans {
		dur[s.Name] += s.End - s.Start
		calls[s.Name]++
	}
	return dur, calls
}

// writeSpans writes one JSON object per span, in start order (spans are
// appended as they begin).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
