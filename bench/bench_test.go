package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// toySizes keeps every workload, traced and untraced, inside a few
// seconds of `go test`.
var toySizes = sizes{Publishers: 24, PagesPerSite: 3}

// toyResults memoizes toyRun, so the tests that inspect a run share it.
var toyResults = map[string]*result{}

// toyRun runs one workload at toy size, once per (workload, traced).
func toyRun(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	key := fmt.Sprint(workload, traced)
	if res, ok := toyResults[key]; ok {
		return res
	}
	res, err := runWorkload(context.Background(), runConfig{
		Workload:  workload,
		Seed:      20170419,
		Seconds:   0.2,
		Traced:    traced,
		Size:      toySizes,
		StateRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	toyResults[key] = res
	return res
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCatalogue holds BENCHMARK.json and catalog.go
// to each other and to the limits the benchmark contract sets.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, catalogue %d", len(f.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range f.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, catalogue %q (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, catalogue %d", len(f.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range f.EndToEnd {
		unique(m.Name)
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != string(want.Better) || m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, catalogue %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the allowed alphabet", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, catalogue %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		unique(m.Name)
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != string(want.Better) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, catalogue %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the allowed alphabet", m.Name, m.Unit)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
}

// TestWorkloadsEmitTheCatalogue runs every workload at toy size, traced
// and untraced, and checks the result line: exactly the catalogue's
// names, each with its unit, nothing failed, and every end-to-end metric
// non-zero. (runWorkload itself rejects a metric the catalogue does not
// list and a missing end-to-end metric.)
func TestWorkloadsEmitTheCatalogue(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := toyRun(t, w.Name, traced)
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, res.Attempted, res.Failed)
			}
			line := res.line(traced)
			want := catalogue(traced)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result line, catalogue lists %d", w.Name, traced, len(line.Metrics), len(want))
			}
			nonZero := 0
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s missing", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s has unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, m.Name, got.Value)
				}
				if got.Value != 0 {
					nonZero++
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, got.Value)
				}
			}
			if traced && nonZero < 5 {
				t.Errorf("%s: only %d per-layer metrics are non-zero", w.Name, nonZero)
			}
			if _, err := json.Marshal(line); err != nil {
				t.Errorf("%s traced=%v: result line does not encode: %v", w.Name, traced, err)
			}
		}
	}
}

// TestSpansNestAndReconcile checks the trace's books on every traced
// workload: each span lies inside its parent, no span's self time is
// negative, and the self times of all spans add up to the root span —
// the traced wall — to within 1 %. The root's own self time is what the
// benchmark reports as trace.unaccounted.
func TestSpansNestAndReconcile(t *testing.T) {
	for _, w := range workloads {
		spans := toyRun(t, w.Name, true).Spans
		if len(spans) == 0 || spans[0].Name != spanRoot || spans[0].Parent != -1 {
			t.Fatalf("%s: trace has no root span first (%d spans)", w.Name, len(spans))
		}
		self := make([]int64, len(spans))
		for i, s := range spans {
			if s.End < s.Start {
				t.Fatalf("%s: span %d (%s) ends before it starts", w.Name, i, s.Name)
			}
			self[i] += s.End - s.Start
			if s.Parent < 0 {
				if i != 0 {
					t.Errorf("%s: span %d (%s) is a second root", w.Name, i, s.Name)
				}
				continue
			}
			p := spans[s.Parent]
			if s.Parent >= i || s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", w.Name, i, s.Name, s.Parent, p.Name)
			}
			self[s.Parent] -= s.End - s.Start
		}
		var sum int64
		for i, v := range self {
			if v < 0 {
				t.Errorf("%s: span %d (%s) has negative self time %d ns", w.Name, i, spans[i].Name, v)
			}
			sum += v
		}
		var byName int64
		for _, v := range selfTimes(spans) {
			byName += v
		}
		wall := spans[0].End - spans[0].Start
		for what, got := range map[string]int64{"per span": sum, "per name": byName} {
			if diff := math.Abs(float64(got - wall)); diff > 0.01*float64(wall) {
				t.Errorf("%s: self times %s add up to %d ns, traced wall is %d ns", w.Name, what, got, wall)
			}
		}
	}
}

// TestTailPercentileRule pins the reporting rule: a timing is given as
// its median plus the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 0.50}, {19, 0.50}, {20, 0.50}, {99, 0.50},
		{100, 0.90}, {999, 0.90},
		{1000, 0.99}, {9999, 0.99},
		{10000, 0.999}, {20000, 0.999}, {99999, 0.999},
		{100000, 0.9999}, {5000000, 0.9999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	tm := summarize(samples)
	if tm.P50 != 50 || tm.TailQ != 0.90 || tm.TailV != 90 {
		t.Errorf("summarize(1..100) = %s, want p50=50 p90=90", tm)
	}
	if _, err := tm.at(0.99); err == nil {
		t.Error("p99 of 100 samples has one sample beyond it; at(0.99) must refuse")
	}
}

// TestQuartilesMatchPython pins the spread computation to Python's
// statistics.quantiles(values, n=4), which the acceptance rule names.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3, ok := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3, ok = quartiles([]float64{3, 1})
	if !ok || q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(1, 3) = %v, %v; Python gives 0.5, 3.5", q1, q3)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
}

// TestJudge covers the three verdicts and the every-run-better escape.
func TestJudge(t *testing.T) {
	lowerM := metricInfo{Name: "latency", Unit: "us", Better: lower, Bound: 0.10}
	higherM := metricInfo{Name: "rate", Unit: "1/s", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		m    metricInfo
		a, b []float64
		want verdict
	}{
		{"same", lowerM, steady, steady, verdictOK},
		{"slower within bound", lowerM, steady, []float64{105, 106, 104, 105, 105}, verdictOK},
		{"slower beyond bound", lowerM, steady, []float64{115, 116, 114, 115, 115}, verdictRegressed},
		{"rate drop beyond bound", higherM, steady, []float64{85, 86, 84, 85, 85}, verdictRegressed},
		{"rate gain", higherM, steady, []float64{125, 126, 124, 125, 125}, verdictOK},
		{"noisy", lowerM, []float64{80, 120, 100, 60, 140}, []float64{90, 110, 100, 70, 130}, verdictUnresolved},
		{"noisy but every run better", lowerM, []float64{80, 120, 100, 60, 140}, []float64{10, 30, 20, 50, 40}, verdictOK},
		{"ungated", metricInfo{Name: "layer", Unit: "us", Better: lower}, steady, []float64{200}, verdictUngated},
	} {
		if got, _, _, _, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
