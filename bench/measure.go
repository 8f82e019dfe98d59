package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/analysis"
)

// probe captures the process-wide cost counters at the start of a timed
// region; stop returns what the region spent.
type probe struct {
	t       time.Time
	cpu     float64
	mallocs uint64
	bytes   uint64
}

// cost is what a timed region spent.
type cost struct {
	Wall    float64 // seconds
	CPU     float64 // user+sys seconds, whole process
	Mallocs uint64
	Bytes   uint64 // heap bytes allocated
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func startProbe() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probe{t: time.Now(), cpu: cpuSeconds(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (p probe) stop() cost {
	wall := time.Since(p.t).Seconds()
	cpu := cpuSeconds() - p.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cost{Wall: wall, CPU: cpu, Mallocs: ms.Mallocs - p.mallocs, Bytes: ms.TotalAlloc - p.bytes}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// stateDir makes a fresh state directory under root; the caller removes
// it. Keeping it under the working directory keeps all benchmark state
// on one filesystem and inside the checkout.
func stateDir(root, label string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, label+"-*")
}

// datasetJSON renders a dataset exactly as the CLIs write it.
func datasetJSON(ds *analysis.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// datasetDigest is the sha256 of a dataset's canonical JSON.
func datasetDigest(ds *analysis.Dataset) (string, error) {
	b, err := datasetJSON(ds)
	if err != nil {
		return "", err
	}
	return sha256Hex(b), nil
}

// median returns the middle of xs (mean of the middle two when even);
// 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile reads the q-quantile (0 < q < 1) from an ascending slice
// by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// tailLevels are the percentiles a timing may be reported at, each with
// the share of samples beyond it written as one in `per`.
var tailLevels = []struct {
	q   float64
	per int
}{{0.50, 2}, {0.90, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// tailPercentile picks the reporting percentile for n samples: the
// highest level that still has at least ten samples beyond it. With
// fewer than 100 samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := tailLevels[0].q
	for _, l := range tailLevels {
		if n/l.per >= 10 {
			best = l.q
		}
	}
	return best
}

// timing summarises one set of latency samples by the rule above.
type timing struct {
	N      int
	P50    float64
	TailQ  float64
	TailV  float64
	sorted []float64
}

func summarize(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := tailPercentile(len(s))
	return timing{N: len(s), P50: percentile(s, 0.50), TailQ: q, TailV: percentile(s, q), sorted: s}
}

// at reads a fixed percentile, failing when the sample is too small for
// it to mean anything (fewer than ten samples beyond it).
func (t timing) at(q float64) (float64, error) {
	if q > t.TailQ {
		return 0, fmt.Errorf("only %d samples: p%g needs at least ten beyond it", t.N, q*100)
	}
	return percentile(t.sorted, q), nil
}

func (t timing) String() string {
	return fmt.Sprintf("n=%d p50=%.4g p%g=%.4g", t.N, t.P50, t.TailQ*100, t.TailV)
}

// medianSetup runs setup n times and reports the median, so one slow
// set-up does not decide setup_s.
func medianSetup(n int, setup func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		s, err := setup()
		if err != nil {
			return 0, err
		}
		xs = append(xs, s)
	}
	return median(xs), nil
}

// repeatFor calls fn until about `seconds` of wall time have gone into
// it: it stops once the next call would, on average, end further from
// the target than stopping now. fn runs at least once.
func repeatFor(seconds float64, fn func(rep int) error) (int, error) {
	start := time.Now()
	reps := 0
	for {
		if err := fn(reps); err != nil {
			return reps, err
		}
		reps++
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(reps)/2 > seconds {
			return reps, nil
		}
	}
}
