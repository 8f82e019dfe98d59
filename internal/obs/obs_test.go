package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Error("second lookup returned a different counter")
	}
	if r.Counter("y") == c {
		t.Error("distinct names share a counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("fn", func() int64 { return 42 })
	if got := r.Snapshot().Gauges["fn"]; got != 42 {
		t.Fatalf("func gauge = %d, want 42", got)
	}
	// Re-registration replaces: the queue of a new crawl takes over the
	// name from the previous crawl's queue.
	r.GaugeFunc("fn", func() int64 { return 7 })
	if got := r.Snapshot().Gauges["fn"]; got != 7 {
		t.Fatalf("replaced func gauge = %d, want 7", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(1 * time.Millisecond)
	}
	h.Observe(100 * time.Millisecond)
	st := h.Stat()
	if st.Count != 101 {
		t.Fatalf("count = %d, want 101", st.Count)
	}
	if want := 100*time.Millisecond + 100*time.Millisecond; st.Sum != want {
		t.Fatalf("sum = %v, want %v", st.Sum, want)
	}
	// 1ms falls in the (512µs, 1.024ms] bucket: p50 reports its upper
	// bound.
	if st.P50 < time.Millisecond || st.P50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms (bucket upper bound)", st.P50)
	}
	// The single 100ms outlier is past the 99th percentile of 101
	// observations, so p99 still reports the 1ms bucket.
	if st.P99 > 2*time.Millisecond {
		t.Errorf("p99 = %v, want ~1ms", st.P99)
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram()
	if st := h.Stat(); st.Count != 0 || st.P50 != 0 {
		t.Errorf("empty histogram stat = %+v", st)
	}
	h.Observe(-5 * time.Second) // clamps to zero, lands in first bucket
	h.Observe(10 * time.Minute) // beyond the last bound: overflow bucket
	st := h.Stat()
	if st.Count != 2 {
		t.Fatalf("count = %d, want 2", st.Count)
	}
	if st.P99 <= time.Duration(defaultBounds[len(defaultBounds)-1]) {
		t.Errorf("p99 = %v, want overflow sentinel past the last bound", st.P99)
	}
}

// TestConcurrent exercises every metric type from many goroutines while
// snapshots run — the -race gate for the registry.
func TestConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	r.GaugeFunc("f", func() int64 { return c.Value() })

	const workers, iters = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := h.Stat().Count; got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestExpvarMapFlattensHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Histogram("stage.x").Observe(time.Millisecond)
	m := r.expvarMap()
	if m["c"] != 3 {
		t.Errorf("c = %d", m["c"])
	}
	if m["stage.x.count"] != 1 {
		t.Errorf("stage.x.count = %d", m["stage.x.count"])
	}
	if m["stage.x.p50_ns"] == 0 {
		t.Error("stage.x.p50_ns missing")
	}
}

// TestRuntimeGauges: every runtime gauge reads a value this Go release
// exports — non-zero, but for the mark assists and idle marking a small
// process may never have needed — and allocating moves the allocation
// totals between two snapshots.
func TestRuntimeGauges(t *testing.T) {
	exported := map[string]metrics.ValueKind{}
	for _, d := range metrics.All() {
		exported[d.Name] = d.Kind
	}
	before := Default.Snapshot()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	runtime.GC()
	after := Default.Snapshot()
	for _, g := range runtimeGauges {
		if _, ok := exported[g.sample]; !ok {
			t.Errorf("%s reads %s, which this Go release does not export", g.name, g.sample)
		}
		mayBeZero := g.name == MRuntimeGCMarkAssistNanos || g.name == MRuntimeGCMarkIdleNanos
		if v := after.Gauges[g.name]; v < 0 || v == 0 && !mayBeZero {
			t.Errorf("%s (%s) reads %d", g.name, g.sample, v)
		}
	}
	if exported[schedLatencies] != metrics.KindFloat64Histogram {
		t.Errorf("%s is not a histogram this Go release exports", schedLatencies)
	}
	if p50, p99 := after.Gauges[MRuntimeSchedLatencyP50Nanos], after.Gauges[MRuntimeSchedLatencyP99Nanos]; p50 < 0 || p99 < p50 {
		t.Errorf("scheduling latency p50 %d ns, p99 %d ns", p50, p99)
	}
	if d := after.Gauges[MRuntimeHeapAllocBytes] - before.Gauges[MRuntimeHeapAllocBytes]; d < 64*4096 {
		t.Errorf("%s moved %d bytes over 256 KiB of allocations", MRuntimeHeapAllocBytes, d)
	}
	if d := after.Gauges[MRuntimeGCCycles] - before.Gauges[MRuntimeGCCycles]; d < 1 {
		t.Errorf("%s moved %d over a forced GC", MRuntimeGCCycles, d)
	}
	runtime.KeepAlive(sink)
}

// TestHistogramQuantile: the quantile is the upper bound of the bucket
// it falls in, or the lower bound of an unbounded last bucket.
func TestHistogramQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{50, 40, 9, 1},
		Buckets: []float64{0, 1, 2, 4, math.Inf(1)},
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 1}, {0.51, 2}, {0.9, 2}, {0.99, 4}, {1, 4}} {
		if got := histogramQuantile(h, c.q); got != c.want {
			t.Errorf("q%.2f = %v, want %v", c.q, got, c.want)
		}
	}
	if got := histogramQuantile(&metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0.5); got != 0 {
		t.Errorf("empty histogram: %v, want 0", got)
	}
}
