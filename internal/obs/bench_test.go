package obs

import (
	"testing"
	"time"
)

// TestHotOpsZeroAlloc is the acceptance bar for instrumentation on the
// crawl hot path: counter, gauge and histogram operations allocate
// nothing.
func TestHotOpsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h")
	allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(-1)
		h.Observe(1234 * time.Microsecond)
		h.ObserveSince(time.Time{})
	})
	if allocs != 0 {
		t.Errorf("hot-path metric ops allocate %.1f times, want 0", allocs)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) % time.Second)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var i time.Duration
		for pb.Next() {
			h.Observe(i % time.Second)
			i += 1717
		}
	})
}

// Snapshot is off the hot path (reporter cadence); benchmarked to keep
// its cost visible, not to hold it to zero allocations.
func BenchmarkRegistrySnapshot(b *testing.B) {
	r := NewRegistry()
	for _, n := range []string{MPages, MPageErrors, MSites} {
		r.Counter(n).Add(10)
	}
	for _, n := range []string{MStageFetch, MStageParse, MStageTree, MStageLabel, MStageSpool} {
		h := r.Histogram(n)
		for i := 0; i < 1000; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Snapshot()
	}
}

func BenchmarkRenderProgress(b *testing.B) {
	r := NewRegistry()
	r.Counter(MPages).Add(1234)
	r.Gauge(MQueueTotal).Set(600)
	r.Gauge(MQueueDone).Set(100)
	h := r.Histogram(MStageFetch)
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	cur := r.Snapshot()
	prev := Snapshot{Counters: map[string]int64{MPages: 1000}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RenderProgress(cur, prev, 10*time.Second, time.Second)
	}
}
