package obs

import (
	"math"
	"runtime/metrics"
)

// Go runtime metrics, registered on Default as function gauges and so
// read from runtime/metrics only when a snapshot is taken: they cost the
// crawl nothing between snapshots. Cycles, allocations and CPU are
// totals since the process started; two snapshots bracket a run, and
// their difference over its pages is the per-page figure. The GC's CPU
// splits into mark assists (taken from allocating goroutines), the
// dedicated and idle mark workers, and stop-the-world pauses; user is
// the CPU the program's own goroutines ran. The scheduling latency pair
// is the p50 and p99 of how long a runnable goroutine waited for a
// thread, over the process's life.
const (
	MRuntimeGCCycles             = "runtime.gc_cycles"
	MRuntimeHeapAllocBytes       = "runtime.heap_alloc_bytes"
	MRuntimeHeapAllocObjects     = "runtime.heap_alloc_objects"
	MRuntimeHeapLiveBytes        = "runtime.heap_live_bytes"
	MRuntimeGCCPUNanos           = "runtime.gc_cpu_ns"
	MRuntimeCPUNanos             = "runtime.cpu_ns"
	MRuntimeGCMarkAssistNanos    = "runtime.gc_mark_assist_ns"
	MRuntimeGCMarkDedicatedNanos = "runtime.gc_mark_dedicated_ns"
	MRuntimeGCMarkIdleNanos      = "runtime.gc_mark_idle_ns"
	MRuntimeGCPauseNanos         = "runtime.gc_pause_ns"
	MRuntimeUserCPUNanos         = "runtime.user_cpu_ns"
	MRuntimeSchedLatencyP50Nanos = "runtime.sched_latency_p50_ns"
	MRuntimeSchedLatencyP99Nanos = "runtime.sched_latency_p99_ns"
)

// runtimeGauges pairs each runtime gauge with the runtime/metrics value
// it reads. CPU classes are float seconds; the gauges report
// nanoseconds.
var runtimeGauges = [...]struct{ name, sample string }{
	{MRuntimeGCCycles, "/gc/cycles/total:gc-cycles"},
	{MRuntimeHeapAllocBytes, "/gc/heap/allocs:bytes"},
	{MRuntimeHeapAllocObjects, "/gc/heap/allocs:objects"},
	{MRuntimeHeapLiveBytes, "/gc/heap/live:bytes"},
	{MRuntimeGCCPUNanos, "/cpu/classes/gc/total:cpu-seconds"},
	{MRuntimeCPUNanos, "/cpu/classes/total:cpu-seconds"},
	{MRuntimeGCMarkAssistNanos, "/cpu/classes/gc/mark/assist:cpu-seconds"},
	{MRuntimeGCMarkDedicatedNanos, "/cpu/classes/gc/mark/dedicated:cpu-seconds"},
	{MRuntimeGCMarkIdleNanos, "/cpu/classes/gc/mark/idle:cpu-seconds"},
	{MRuntimeGCPauseNanos, "/cpu/classes/gc/pause:cpu-seconds"},
	{MRuntimeUserCPUNanos, "/cpu/classes/user:cpu-seconds"},
}

// schedLatencies is the runtime/metrics histogram the scheduling
// latency gauges read.
const schedLatencies = "/sched/latencies:seconds"

func init() {
	for _, g := range runtimeGauges {
		Default.GaugeFunc(g.name, readRuntime(g.sample))
	}
	Default.GaugeFunc(MRuntimeSchedLatencyP50Nanos, readRuntimeQuantile(schedLatencies, 0.50))
	Default.GaugeFunc(MRuntimeSchedLatencyP99Nanos, readRuntimeQuantile(schedLatencies, 0.99))
}

// readRuntime returns a gauge function reading one runtime/metrics
// value. Each call reads into a sample of its own, so concurrent
// snapshots share no memory (runtime/metrics.Read's rule).
func readRuntime(name string) func() int64 {
	return func() int64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		switch v := s[0].Value; v.Kind() {
		case metrics.KindUint64:
			return int64(min(v.Uint64(), math.MaxInt64))
		case metrics.KindFloat64:
			return int64(v.Float64() * 1e9)
		}
		return 0 // this Go release does not export the metric
	}
}

// readRuntimeQuantile returns a gauge function reading quantile q of a
// runtime/metrics histogram of seconds, in nanoseconds: the upper bound
// of the bucket the quantile falls in (its lower bound for the last,
// unbounded bucket), so an upper bound like the registry's own
// histograms report.
func readRuntimeQuantile(name string, q float64) func() int64 {
	return func() int64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		if s[0].Value.Kind() != metrics.KindFloat64Histogram {
			return 0 // this Go release does not export the metric
		}
		return int64(histogramQuantile(s[0].Value.Float64Histogram(), q) * 1e9)
	}
}

// histogramQuantile is readRuntimeQuantile's bucket search, in the
// histogram's unit; 0 for an empty histogram.
func histogramQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, n := range h.Counts {
		if seen += n; seen >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
