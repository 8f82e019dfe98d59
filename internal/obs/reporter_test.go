package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRenderProgressGolden pins the progress line format: queue depth,
// pages/sec over the interval, and per-stage p50/p99.
func TestRenderProgressGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(MPages).Add(240)
	r.Counter(MPageErrors).Add(3)
	r.Gauge(MQueueTotal).Set(60)
	r.Gauge(MQueueDone).Set(16)
	r.Gauge(MQueueLeased).Set(4)
	r.Gauge(MQueuePending).Set(40)
	r.Gauge(MQueueFailed).Set(0)
	r.Gauge(MQueueRetries).Set(1)
	r.Gauge(MQueueRequeues).Set(0)
	fetch := r.Histogram(MStageFetch)
	for i := 0; i < 99; i++ {
		fetch.Observe(900 * time.Microsecond) // (512µs,1.024ms] bucket
	}
	fetch.Observe(7 * time.Millisecond) // (4.096ms,8.192ms] bucket
	label := r.Histogram(MStageLabel)
	label.Observe(3 * time.Microsecond) // (2µs,4µs] bucket
	r.Gauge(MRuntimeCPUNanos).Set(9_000_000_000)
	r.Gauge(MRuntimeGCCPUNanos).Set(2_500_000_000)
	r.Gauge(MRuntimeHeapLiveBytes).Set(7 << 19) // 3.5 MiB

	cur := r.Snapshot()
	prev := Snapshot{
		Counters: map[string]int64{MPages: 220},
		Gauges:   map[string]int64{MRuntimeCPUNanos: 7_000_000_000, MRuntimeGCCPUNanos: 2_000_000_000},
	}
	got := RenderProgress(cur, prev, 12*time.Second, time.Second)
	want := "progress 12s: pages=240 (20.0/s) page_errs=3" +
		" queue[done=16/60 leased=4 pending=40 failed=0 retries=1 requeues=0]" +
		" fetch[p50=1.02ms p99=8.19ms] label[p50=4µs p99=4µs] gc=25% live=3.5MiB"
	if got != want {
		t.Errorf("progress line mismatch:\n got: %s\nwant: %s", got, want)
	}
}

func TestRenderProgressWithoutQueue(t *testing.T) {
	r := NewRegistry()
	r.Counter(MPages).Add(5)
	got := RenderProgress(r.Snapshot(), Snapshot{}, 2*time.Second, time.Second)
	if strings.Contains(got, "queue[") {
		t.Errorf("queue section rendered without queue gauges: %s", got)
	}
	if !strings.Contains(got, "pages=5 (5.0/s)") {
		t.Errorf("pages/rate missing: %s", got)
	}
}

// syncWriter makes a strings.Builder safe to share with the reporter
// goroutine.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

func TestReporterPrintsPeriodicallyAndOnStop(t *testing.T) {
	r := NewRegistry()
	r.Counter(MPages).Add(1)
	var buf syncWriter
	rep := NewReporter(&buf, 5*time.Millisecond, r)
	rep.Start()
	time.Sleep(40 * time.Millisecond)
	rep.Stop()
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected periodic lines plus a final one, got %q", out)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "progress ") || !strings.Contains(l, "pages=1") {
			t.Errorf("malformed progress line: %q", l)
		}
	}
	if !strings.HasSuffix(lines[len(lines)-1], "(final)") {
		t.Errorf("last line not marked final: %q", lines[len(lines)-1])
	}
	// Stop twice and start/stop again: lifecycle must be reentrant.
	rep.Stop()
	rep.Start()
	rep.Stop()
}
