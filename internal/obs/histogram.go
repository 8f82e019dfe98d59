package obs

import (
	"sync/atomic"
	"time"
)

// defaultBounds are the histogram bucket upper bounds: powers of two
// from 1µs to ~34s. 26 buckets cover every latency the pipeline
// produces — a sub-microsecond filter-list match up to a wedged multi-second
// page fetch — with ≤2× relative quantile error, which is plenty for
// progress lines and regression hunting.
var defaultBounds = func() []int64 {
	const n = 26
	b := make([]int64, n)
	v := int64(time.Microsecond)
	for i := 0; i < n; i++ {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is a bounded-bucket duration histogram. Buckets are
// preallocated at construction and Observe is a binary search plus two
// atomic adds: no allocation, no locks — safe and cheap on hot paths.
// Quantiles are approximate: a quantile resolves to its bucket's upper
// bound, so with the default powers-of-two bounds the reported value is
// at most 2× the true one.
type Histogram struct {
	bounds []int64        // upper bounds in nanoseconds, ascending
	counts []atomic.Int64 // len(bounds)+1; last bucket is overflow
	sum    atomic.Int64   // total nanoseconds
}

// NewHistogram builds a histogram with the default exponential bounds.
func NewHistogram() *Histogram {
	return &Histogram{
		bounds: defaultBounds,
		counts: make([]atomic.Int64, len(defaultBounds)+1),
	}
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// Binary search for the first bound >= ns.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < ns {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(ns)
}

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start)) }

// HistStat is a histogram snapshot: totals plus approximate quantiles.
type HistStat struct {
	Count         int64
	Sum           time.Duration
	P50, P90, P99 time.Duration
}

// Stat snapshots the histogram. The bucket counts are read without a
// global lock, so a snapshot taken concurrently with observations may
// be off by the in-flight handful — fine for reporting.
func (h *Histogram) Stat() HistStat {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	st := HistStat{Count: total, Sum: time.Duration(h.sum.Load())}
	st.P50 = h.quantile(counts, total, 0.50)
	st.P90 = h.quantile(counts, total, 0.90)
	st.P99 = h.quantile(counts, total, 0.99)
	return st
}

// quantile resolves quantile q from a copied count slice: the upper
// bound of the bucket holding the q-th observation.
func (h *Histogram) quantile(counts []int64, total int64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	// Exclusive nearest rank: the first observation with at least q of
	// the distribution strictly below it, so a single tail outlier is
	// visible in p99 even at low counts.
	target := int64(q*float64(total)) + 1
	if target > total {
		target = total
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return time.Duration(h.bounds[i])
			}
			// Overflow bucket: report one doubling past the last bound.
			return time.Duration(h.bounds[len(h.bounds)-1] * 2)
		}
	}
	return time.Duration(h.bounds[len(h.bounds)-1] * 2)
}
