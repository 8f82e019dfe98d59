package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Reporter periodically renders crawl progress from a registry to a
// writer: throughput (pages/sec over the last interval), queue depth,
// retry/requeue/panic counts, and per-stage latency quantiles. It is a
// pure observer — it only reads metric values — so running one cannot
// change crawl output. Stop always prints one final line, so even a
// crawl shorter than the interval leaves a progress record.
type Reporter struct {
	w        io.Writer
	interval time.Duration
	reg      *Registry

	mu    sync.Mutex
	stop  chan struct{}
	done  chan struct{}
	start time.Time
	prev  Snapshot
}

// NewReporter builds a reporter over reg that writes one progress line
// to w every interval once started.
func NewReporter(w io.Writer, interval time.Duration, reg *Registry) *Reporter {
	if interval <= 0 {
		interval = time.Second
	}
	return &Reporter{w: w, interval: interval, reg: reg}
}

// Start launches the reporting goroutine. Starting a started reporter
// is a no-op.
func (r *Reporter) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	r.start = time.Now()
	r.prev = r.reg.Snapshot()
	go r.loop(r.stop, r.done)
}

// Stop halts the reporter after printing a final progress line. Safe to
// call on a never-started or already-stopped reporter.
func (r *Reporter) Stop() {
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop, r.done = nil, nil
	r.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (r *Reporter) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.tick(false)
		case <-stop:
			r.tick(true)
			return
		}
	}
}

// tick renders one line and rotates the rate baseline.
func (r *Reporter) tick(final bool) {
	cur := r.reg.Snapshot()
	r.mu.Lock()
	prev := r.prev
	r.prev = cur
	elapsed := time.Since(r.start)
	r.mu.Unlock()
	// The rate window of the final line is however long the last
	// partial interval ran; the full interval is close enough.
	line := RenderProgress(cur, prev, elapsed, r.interval)
	if final {
		line += " (final)"
	}
	fmt.Fprintln(r.w, line)
}

// stageOrder lists the pipeline histograms a progress line shows, in
// pipeline order with their display labels.
var stageOrder = []struct{ name, label string }{
	{MStageFetch, "fetch"},
	{MStageParse, "parse"},
	{MStageTree, "tree"},
	{MStageLabel, "label"},
}

// RenderProgress renders one progress line from two snapshots: cur for
// levels and quantiles, cur−prev over interval for rates, elapsed for
// the leading wall-clock stamp. It is a pure function of its inputs,
// which is what makes the reporter's output golden-testable.
func RenderProgress(cur, prev Snapshot, elapsed, interval time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "progress %s:", fmtDur(elapsed))

	pages := cur.Counters[MPages]
	rate := 0.0
	if interval > 0 {
		rate = float64(pages-prev.Counters[MPages]) / interval.Seconds()
	}
	fmt.Fprintf(&b, " pages=%d (%.1f/s)", pages, rate)
	if v := cur.Counters[MPageErrors]; v > 0 {
		fmt.Fprintf(&b, " page_errs=%d", v)
	}
	if v := cur.Counters[MSitePanics]; v > 0 {
		fmt.Fprintf(&b, " panics=%d", v)
	}

	if total, ok := cur.Gauges[MQueueTotal]; ok {
		fmt.Fprintf(&b, " queue[done=%d/%d leased=%d pending=%d failed=%d",
			cur.Gauges[MQueueDone], total, cur.Gauges[MQueueLeased],
			cur.Gauges[MQueuePending], cur.Gauges[MQueueFailed])
		if v, ok := cur.Gauges[MQueueRetries]; ok {
			fmt.Fprintf(&b, " retries=%d", v)
		}
		if v, ok := cur.Gauges[MQueueRequeues]; ok {
			fmt.Fprintf(&b, " requeues=%d", v)
		}
		b.WriteString("]")
	}

	for _, st := range stageOrder {
		h, ok := cur.Hists[st.name]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s[p50=%s p99=%s]", st.label, fmtDur(h.P50), fmtDur(h.P99))
	}
	return b.String()
}

// fmtDur formats a duration compactly: three-ish significant figures,
// no sub-nanosecond noise.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(100 * time.Nanosecond).String()
	default:
		return d.String()
	}
}
