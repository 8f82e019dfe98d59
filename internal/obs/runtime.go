package obs

import (
	"math"
	"runtime/metrics"
)

// Go runtime metrics, registered on Default as function gauges and so
// read from runtime/metrics only when a snapshot is taken: they cost the
// crawl nothing between snapshots. Cycles, allocations and CPU are
// totals since the process started; two snapshots bracket a run, and
// their difference over its pages is the per-page figure.
const (
	MRuntimeGCCycles         = "runtime.gc_cycles"
	MRuntimeHeapAllocBytes   = "runtime.heap_alloc_bytes"
	MRuntimeHeapAllocObjects = "runtime.heap_alloc_objects"
	MRuntimeHeapLiveBytes    = "runtime.heap_live_bytes"
	MRuntimeGCCPUNanos       = "runtime.gc_cpu_ns"
	MRuntimeCPUNanos         = "runtime.cpu_ns"
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
}

func init() {
	for _, g := range runtimeGauges {
		Default.GaugeFunc(g.name, readRuntime(g.sample))
	}
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
