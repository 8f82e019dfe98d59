package obs

import (
	"testing"
	"time"
)

func TestSpanRecordsElapsed(t *testing.T) {
	h := NewHistogram()
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	sp.End()
	if got := h.Stat().Count; got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	if st := h.Stat(); st.Sum < time.Millisecond {
		t.Errorf("Sum = %v, want >= 1ms", st.Sum)
	}
}

func TestSpanDeferredChain(t *testing.T) {
	h := NewHistogram()
	func() {
		defer StartSpan(h).End()
	}()
	if got := h.Stat().Count; got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

// End on the zero Span (and on a span over a nil histogram) is a no-op,
// so optional instrumentation can thread spans through structs without
// nil checks at every End site.
func TestSpanZeroValueEnd(t *testing.T) {
	var sp Span
	sp.End()
	StartSpan(nil).End()
}
