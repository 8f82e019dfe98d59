// Command wsrepro runs the full reproduction of "How Tracking Companies
// Circumvented Ad Blockers Using WebSockets" (IMC 2018): it generates
// the synthetic web, performs the paper's four crawls (two before the
// Chrome 58 patch, two after), and prints every table and figure of the
// evaluation.
//
// Usage:
//
//	wsrepro [-publishers N] [-workers N] [-pages N] [-seed S]
//	        [-table 1..5|overview|categories|churn] [-figure 1..4]
//	        [-json DIR] [-csv DIR] [-state DIR] [-resume] [-retries N]
//	        [-metrics-addr HOST:PORT] [-progress DUR]
//	wsrepro [-table NAME] [-figure NAME] [-json DIR] [-csv DIR]
//	        crawl1.json [crawl2.json ...]
//
// With no -table/-figure flag the complete report is printed; one
// section printed alone is byte for byte its slice of the report
// (analysis.Sections). Given dataset files (wscrawl -out, wsrepro -json)
// it renders them instead of crawling: the four files -json wrote give
// the study's report byte for byte. Figures 1 and 2 need no crawl.
//
// The four crawls run through dispatch's durable grant loop
// (internal/dispatch): each keeps its columnar store — its pages and
// the outcome of every settled attempt, its one durable state
// (store-crawlN, queryable with wsquery) — under -state (when unset, in
// a temporary directory the crawl removes as it ends), and an
// interrupted study (SIGINT/SIGTERM commit first) resumes with -state
// DIR -resume without re-crawling completed crawls.
// -metrics-addr (expvar + pprof) and -progress (stderr) only observe:
// the output is byte-identical with or without them (OPERATIONS.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command. It returns the exit status, so deferred
// clean-up runs on every path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wsrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		publishers  = fs.Int("publishers", 600, "number of generic publishers in the synthetic web")
		workers     = fs.Int("workers", 8, "parallel crawl workers")
		pages       = fs.Int("pages", 15, "page budget per site")
		seed        = fs.Int64("seed", 20170419, "study seed")
		table       = fs.String("table", "", "print only one table: "+sectionNames("table"))
		figure      = fs.String("figure", "", "print only one figure: "+sectionNames("figure"))
		jsonDir     = fs.String("json", "", "also write per-crawl datasets as JSON into this directory")
		csvDir      = fs.String("csv", "", "also write table1/figure3/sockets as CSV into this directory")
		stateDir    = fs.String("state", "", "crawl state directory (one store per crawl; default: a temp dir)")
		resume      = fs.Bool("resume", false, "resume an interrupted study from the -state stores")
		retries     = fs.Int("retries", 0, "per-site attempt budget (default 3)")
		metricsAddr = fs.String("metrics-addr", "", "serve expvar + pprof on this address (\":0\" picks a port)")
		progress    = fs.Duration("progress", 0, "print progress to stderr at this interval (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "wsrepro:", err)
		return 1
	}

	kind, name := "table", *table // -table wins when both are set
	if name == "" {
		kind, name = "figure", *figure
	}
	var sec *analysis.Section
	if name != "" {
		if sec = analysis.Lookup(kind, name); sec == nil {
			fmt.Fprintf(stderr, "wsrepro: unknown %s %q (one of: %s)\n", kind, name, sectionNames(kind))
			return 2
		}
		if sec.Datasets == 0 {
			fmt.Fprint(stdout, sec.Render())
			return 0
		}
	}
	if *resume && *stateDir == "" {
		fmt.Fprintln(stderr, "wsrepro: -resume requires -state")
		return 2
	}

	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			return fail(err)
		}
		defer msrv.Close()
		fmt.Fprintf(stderr, "wsrepro: metrics on http://%s/debug/vars (pprof at /debug/pprof/)\n", msrv.Addr())
	}
	if *progress > 0 {
		rep := obs.NewReporter(stderr, *progress, obs.Default)
		rep.Start()
		defer rep.Stop()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	var ds []*analysis.Dataset
	if fs.NArg() > 0 {
		var err error
		if ds, err = readDatasets(fs.Args()); err != nil {
			return fail(err)
		}
	} else {
		study, err := core.RunStudy(ctx, core.Options{
			Seed:          *seed,
			NumPublishers: *publishers,
			Workers:       *workers,
			PagesPerSite:  *pages,
			Dispatch: &core.DispatchOptions{
				StateDir:    *stateDir,
				Resume:      *resume,
				MaxAttempts: *retries,
			},
		})
		if err != nil {
			fail(err)
			if *stateDir != "" {
				fmt.Fprintf(stderr, "wsrepro: state kept in %s; rerun with -state %s -resume to continue\n", *stateDir, *stateDir)
			}
			return 1
		}
		for _, r := range study.Results {
			d := r.Dispatch
			fmt.Fprintf(stderr, "wsrepro: %s: %d/%d sites, %d retries, %d failed, %d resumed\n",
				r.Spec.Name, d.Progress.Done, d.Progress.Total, d.Progress.Retries, d.Progress.Failed, d.ResumedDone)
		}
		ds = study.Datasets()
	}
	if sec != nil && len(ds) < sec.Datasets {
		fmt.Fprintf(stderr, "wsrepro: %s %s needs at least %d datasets\n", sec.Kind, sec.Name, sec.Datasets)
		return 2
	}

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return fail(err)
		}
		for i, d := range ds {
			path := filepath.Join(*jsonDir, fmt.Sprintf("crawl%d.json", i+1))
			if err := colstore.WriteAtomic(path, d.WriteJSON); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
	}
	if *csvDir != "" {
		if err := writeCSVs(*csvDir, ds, stderr); err != nil {
			return fail(err)
		}
	}

	if sec != nil {
		fmt.Fprint(stdout, sec.Render(ds...))
	} else {
		fmt.Fprint(stdout, analysis.Report(ds...))
	}
	fmt.Fprintf(stderr, "\n[%d crawls, %s elapsed]\n", len(ds), time.Since(start).Round(time.Millisecond))
	return 0
}

// sectionNames lists the selectable names of one section kind.
func sectionNames(kind string) string {
	var names []string
	for _, s := range analysis.Sections {
		if s.Kind == kind {
			names = append(names, s.Name)
		}
	}
	return strings.Join(names, ", ")
}

// readDatasets loads saved crawl datasets, in argument order.
func readDatasets(paths []string) ([]*analysis.Dataset, error) {
	ds := make([]*analysis.Dataset, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		d, err := analysis.ReadJSON(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// writeCSVs exports plot-ready CSVs for the study, each written
// atomically.
func writeCSVs(dir string, ds []*analysis.Dataset, stderr io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, csv := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"table1.csv", func(w io.Writer) error { return analysis.WriteTable1CSV(w, analysis.Table1(ds...)) }},
		{"figure3.csv", func(w io.Writer) error {
			return analysis.WriteFigure3CSV(w, analysis.Figure3Binned(analysis.DefaultRankEdges, ds...))
		}},
		{"sockets.csv", func(w io.Writer) error { return analysis.WriteSocketsCSV(w, ds...) }},
	} {
		path := filepath.Join(dir, csv.name)
		if err := colstore.WriteAtomic(path, csv.write); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", path)
	}
	return nil
}
