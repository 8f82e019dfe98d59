package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// -compare A.json B.json: one row per (metric, workload) pair present in
// both sets, judged by the catalogue's bounds. A is the base of every
// ratio. A metric without a bound is shown but never judged.

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
	verdictUngated    verdict = "-"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method); ok is
// false for fewer than two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), true
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// judge applies one metric's bound to two sets of values. worse is how
// much B's median is worse than A's, as a share of A's. Where either
// set's own spread exceeds the bound the pair is unresolved — unless
// every run of B reads better than every run of A.
func judge(m metricInfo, a, b []float64) (v verdict, medA, medB, worse, spr float64) {
	medA, medB = median(a), median(b)
	if medA != 0 {
		worse = (medB - medA) / medA
		if m.Better == higher {
			worse = -worse
		}
	}
	spr = spread(a)
	if s := spread(b); s > spr {
		spr = s
	}
	switch {
	case m.Bound == 0:
		return verdictUngated, medA, medB, worse, spr
	case spr > m.Bound && !allBetter(m, a, b):
		return verdictUnresolved, medA, medB, worse, spr
	case worse > m.Bound:
		return verdictRegressed, medA, medB, worse, spr
	}
	return verdictOK, medA, medB, worse, spr
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(m metricInfo, a, b []float64) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if m.Better == lower {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

func loadSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

type pairKey struct{ workload, metric string }

// valuesOf groups a set's metric values by (workload, metric) and its
// failure ratios by workload.
func valuesOf(set *runSet) (map[pairKey][]float64, map[string][]float64) {
	vals := map[pairKey][]float64{}
	fails := map[string][]float64{}
	for _, r := range set.Runs {
		for _, m := range catalogue(r.Trace == 1) {
			if mv, ok := r.Metrics[m.Name]; ok {
				k := pairKey{r.Workload, m.Name}
				vals[k] = append(vals[k], mv.Value)
			}
		}
		if r.Attempted > 0 {
			fails[r.Workload] = append(fails[r.Workload], float64(r.Failed)/float64(r.Attempted))
		}
	}
	return vals, fails
}

// compareSets prints the comparison and reports whether any row
// regressed.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	setA, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	setB, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	valsA, failsA := valuesOf(setA)
	valsB, failsB := valuesOf(setB)
	fmt.Fprintf(w, "# A = %s (commit %s, %s)\n# B = %s (commit %s, %s)\n# worse = how much B's median is worse than A's, as a share of A's\n",
		pathA, setA.Env.Commit, setA.Env.CPU, pathB, setB.Env.Commit, setB.Env.CPU)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tmedian B\tworse\tbound\tspread\tverdict")
	regressed := false
	for _, wl := range workloads {
		for _, list := range [][]metricInfo{endToEnd, perLayer} {
			for _, m := range list {
				k := pairKey{wl.Name, m.Name}
				a, b := valsA[k], valsB[k]
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				v, medA, medB, worse, spr := judge(m, a, b)
				if medA == 0 && medB == 0 {
					continue // the layer does nothing on this workload
				}
				if v == verdictRegressed {
					regressed = true
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
					wl.Name, m.Name, m.Unit, medA, medB, worse*100, m.Bound*100, spr*100, v)
			}
		}
		// Any increase in the share of failed operations is a regression.
		if a, b := failsA[wl.Name], failsB[wl.Name]; len(a) > 0 && len(b) > 0 {
			v := verdictOK
			if median(b) > median(a) {
				v, regressed = verdictRegressed, true
			}
			fmt.Fprintf(tw, "%s\tfail_ratio\tratio\t%.6g\t%.6g\t\t0%%\t\t%s\n", wl.Name, median(a), median(b), v)
		}
	}
	return regressed, tw.Flush()
}
