// Command bench is the repository's one benchmark: five named workloads
// over the real public entry points (core.RunStudy, the fabric
// coordinator and workers, colstore's reader and query handler, the
// webserver echo plane under loadgen), each checked for correctness and
// reported as named metrics with units. BENCHMARK.json at the repository
// root is its contract; README.md in this directory is the guide.
//
//	go run ./bench --workload study --seed 7 --seconds 12 --trace 0
//	go run ./bench                      # every workload, untraced then traced
//	go run ./bench -out A.json -runs 10 # the same, kept as a comparable set
//	go run ./bench -compare A.json B.json
//
// With --workload, the process runs that one workload and prints, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics from a separate
// traced run. Any failed correctness check exits non-zero and prints no
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// sizes is the scale of the generated inputs. All crawl workloads share
// Publishers and PagesPerSite, so their per-page numbers compare.
type sizes struct {
	Publishers   int
	PagesPerSite int
}

// defaultSizes keeps one study (4 crawls) under three seconds on two
// cores, so a 12-second run measures it several times and reports the
// median. The paper-scale 600 publishers gives the same per-page
// numbers (see README.md) but only one sample per run.
var defaultSizes = sizes{Publishers: 150, PagesPerSite: 15}

// runConfig is everything one workload run depends on.
type runConfig struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Traced    bool
	Size      sizes
	StateRoot string // parent of every temp state dir; on the checkout's filesystem
}

// forRep is the config of a batch workload's rep-th repetition. Each
// repetition crawls the synthetic web of the next seed: per-page cost
// depends on what a web happens to contain (sockets per page range from
// 0.08 to 0.14 across seeds), and a run that covers several webs says
// more about the program than one that covers the same web several
// times.
func (c runConfig) forRep(rep int) runConfig {
	c.Seed += int64(rep)
	return c
}

// result is what a workload run produced.
type result struct {
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
	Notes     []string          // human-readable context: sample counts, sizes
	Digests   map[string]string // output digests, compared across processes by the suite
	Spans     []span            // traced runs only
}

func newResult() *result {
	return &result{Metrics: map[string]float64{}, Digests: map[string]string{}}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setMedians sets every metric of reps (which all carry the same
// names) to its median across them.
func (r *result) setMedians(reps []map[string]float64) {
	for name := range reps[0] {
		vs := make([]float64, len(reps))
		for i, rep := range reps {
			vs[i] = rep[name]
		}
		r.set(name, median(vs))
	}
}

// workloadFuncs maps workload names to their implementations.
var workloadFuncs = map[string]func(context.Context, runConfig) (*result, error){
	"study":       func(ctx context.Context, cfg runConfig) (*result, error) { return runCrawlWorkload(ctx, cfg, false) },
	"store_crawl": func(ctx context.Context, cfg runConfig) (*result, error) { return runCrawlWorkload(ctx, cfg, true) },
	"store_read":  runStoreRead,
	"fabric":      runFabric,
	"ws_serve":    runWSServe,
}

// benchProcs is the GOMAXPROCS every workload runs at, whatever nproc
// says; the workloads' own parallelism (2 crawl workers, 2 fabric
// workers, 2 echo connections) is sized to it.
const benchProcs = 2

// runWorkload runs one workload in this process at the fixed
// parallelism the benchmark is defined at, then holds the result to the
// catalogue: every listed metric present exactly once, nothing else.
// Layer metrics a workload does not exercise read 0.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	fn, ok := workloadFuncs[cfg.Workload]
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return nil, fmt.Errorf("unknown workload %q (have: %s)", cfg.Workload, strings.Join(names, ", "))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	res, err := fn(ctx, cfg)
	if err != nil {
		return nil, err
	}
	want := catalogue(cfg.Traced)
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		if _, ok := res.Metrics[m.Name]; !ok {
			if !cfg.Traced {
				return nil, fmt.Errorf("workload %s did not emit end-to-end metric %s", cfg.Workload, m.Name)
			}
			res.Metrics[m.Name] = 0
		}
	}
	for name := range res.Metrics {
		if !listed[name] {
			return nil, fmt.Errorf("workload %s emitted %s, which the catalogue does not list", cfg.Workload, name)
		}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted nothing", cfg.Workload)
	}
	return res, nil
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a workload run ends with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line(traced bool) resultLine {
	out := resultLine{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range catalogue(traced) {
		out.Metrics[m.Name] = metricValue{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	return out
}

// environment describes the machine and build a run came from.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: benchProcs, CPU: "unknown", Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// printRun writes the human-readable part of a run: environment,
// notes, then every metric by name with its unit.
func printRun(cfg runConfig, env environment, res *result) {
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v publishers=%d pages_per_site=%d\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Traced, cfg.Size.Publishers, cfg.Size.PagesPerSite)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s cpu=%q (loopback only; closed loops)\n",
		env.NProc, env.GOMAXPROCS, env.Go, env.Commit, env.CPU)
	for _, n := range res.Notes {
		fmt.Println("#", n)
	}
	var digests []string
	for k, v := range res.Digests {
		digests = append(digests, k+"="+v)
	}
	sort.Strings(digests)
	for _, d := range digests {
		fmt.Println("# sha256", d)
	}
	for _, m := range catalogue(cfg.Traced) {
		fmt.Printf("%-36s %14.6g %s\n", m.Name, res.Metrics[m.Name], m.Unit)
	}
	fmt.Printf("%-36s %14d\n", "attempted", res.Attempted)
	fmt.Printf("%-36s %14d\n", "failed", res.Failed)
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (study, store_crawl, store_read, fabric, ws_serve); empty runs the whole suite")
		seed     = flag.Int64("seed", 20170419, "the only input: feeds core.Options.Seed, loadgen.Config.Seed and the query-mix order")
		seconds  = flag.Float64("seconds", 12, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		spanFile = flag.String("spans", "", "with --trace 1: write the recorded spans to this file, one JSON object per line")
		out      = flag.String("out", "", "suite mode: also write every run as a JSON set for -compare")
		runs     = flag.Int("runs", 1, "suite mode: how many times to run each workload")
		compare  = flag.Bool("compare", false, "compare two sets written with -out: bench -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two set files, got %d", flag.NArg()))
		}
		regressed, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if *workload == "" {
		if err := runSuite(*seed, *seconds, *runs, *out); err != nil {
			fatal(err)
		}
		return
	}
	cfg := runConfig{
		Workload:  *workload,
		Seed:      *seed,
		Seconds:   *seconds,
		Traced:    *trace == 1,
		Size:      defaultSizes,
		StateRoot: ".bench_build",
	}
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fatal(fmt.Errorf("workload %s: %w", cfg.Workload, err))
	}
	if *spanFile != "" {
		if err := writeSpans(*spanFile, res.Spans); err != nil {
			fatal(err)
		}
	}
	printRun(cfg, currentEnvironment(), res)
	line, err := json.Marshal(res.line(cfg.Traced))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
