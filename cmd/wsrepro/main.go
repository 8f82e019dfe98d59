// Command wsrepro runs the full reproduction of "How Tracking Companies
// Circumvented Ad Blockers Using WebSockets" (IMC 2018): it generates
// the synthetic web, performs the paper's four crawls (two before the
// Chrome 58 patch, two after), and prints every table and figure of the
// evaluation.
//
// Usage:
//
//	wsrepro [-publishers N] [-workers N] [-pages N] [-seed S]
//	        [-table 1|2|3|4|5|overview|churn] [-figure 1|2|3|4]
//	        [-json DIR] [-csv DIR] [-state DIR] [-resume] [-retries N]
//	        [-metrics-addr HOST:PORT] [-progress DUR]
//
// With no -table/-figure flag the complete report is printed.
//
// The four crawls run through the durable orchestrator
// (internal/dispatch): each crawl keeps a checkpoint and sharded page
// spool under -state (a temporary directory when unset), failed sites
// retry with backoff, and an interrupted study resumes with
// -state DIR -resume — completed crawls are recovered from their spools
// without re-crawling.
//
// -metrics-addr serves expvar (/debug/vars) and pprof (/debug/pprof)
// for the whole study; -progress prints periodic crawl progress
// (pages/sec, queue depth, per-stage latency) to stderr. Both are pure
// observers: the reproduced tables and figures are byte-identical with
// or without them. See OPERATIONS.md for the operator's guide.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/devtools"
	"repro/internal/dispatch"
	"repro/internal/inclusion"
	"repro/internal/obs"
)

func main() {
	var (
		publishers  = flag.Int("publishers", 600, "number of generic publishers in the synthetic web")
		workers     = flag.Int("workers", 8, "parallel crawl workers")
		pages       = flag.Int("pages", 15, "page budget per site")
		seed        = flag.Int64("seed", 20170419, "study seed")
		table       = flag.String("table", "", "print only one table: 1..5, overview, churn")
		figure      = flag.String("figure", "", "print only one figure: 1..4")
		jsonDir     = flag.String("json", "", "also write per-crawl datasets as JSON into this directory")
		csvDir      = flag.String("csv", "", "also write table1/figure3/sockets as CSV into this directory")
		stateDir    = flag.String("state", "", "orchestrator state directory (checkpoints + spools; default: a temp dir)")
		resume      = flag.Bool("resume", false, "resume an interrupted study from -state checkpoints")
		retries     = flag.Int("retries", 0, "per-site attempt budget (default 3)")
		metricsAddr = flag.String("metrics-addr", "", "serve expvar + pprof on this address (\":0\" picks a port)")
		progress    = flag.Duration("progress", 0, "print progress to stderr at this interval (0 = off)")
	)
	flag.Parse()

	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsrepro:", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "wsrepro: metrics on http://%s/debug/vars (pprof at /debug/pprof/)\n", msrv.Addr())
	}
	if *progress > 0 {
		rep := obs.NewReporter(os.Stderr, *progress, obs.Default)
		rep.Start()
		defer rep.Stop()
	}

	if *figure == "2" {
		// Figure 2 is a worked example, not a crawl output.
		fmt.Print(figure2Demo())
		return
	}

	state := *stateDir
	if state == "" {
		if *resume {
			fmt.Fprintln(os.Stderr, "wsrepro: -resume requires -state")
			os.Exit(2)
		}
		tmp, err := os.MkdirTemp("", "wsrepro-state-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsrepro:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		state = tmp
	} else if err := os.MkdirAll(state, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wsrepro:", err)
		os.Exit(1)
	}

	opts := core.Options{
		Seed:          *seed,
		NumPublishers: *publishers,
		Workers:       *workers,
		PagesPerSite:  *pages,
		Dispatch: &core.DispatchOptions{
			StateDir:    state,
			Resume:      *resume,
			MaxAttempts: *retries,
		},
	}
	start := time.Now()
	study, err := core.RunStudy(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsrepro:", err)
		if *stateDir != "" {
			fmt.Fprintf(os.Stderr, "wsrepro: state kept in %s; rerun with -state %s -resume to continue\n", state, state)
		}
		os.Exit(1)
	}
	for _, r := range study.Results {
		if d := r.Dispatch; d != nil {
			fmt.Fprintf(os.Stderr, "wsrepro: %s: %d/%d sites, %d retries, %d failed, %d resumed\n",
				r.Spec.Name, d.Progress.Done, d.Progress.Total, d.Progress.Retries, d.Progress.Failed, d.ResumedDone)
		}
	}
	ds := study.Datasets()

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "wsrepro:", err)
			os.Exit(1)
		}
		for i, d := range ds {
			path := filepath.Join(*jsonDir, fmt.Sprintf("crawl%d.json", i+1))
			if err := dispatch.WriteAtomic(path, d.WriteJSON); err != nil {
				fmt.Fprintln(os.Stderr, "wsrepro:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, ds); err != nil {
			fmt.Fprintln(os.Stderr, "wsrepro:", err)
			os.Exit(1)
		}
	}

	switch {
	case *table != "":
		switch *table {
		case "1":
			fmt.Print(analysis.RenderTable1(analysis.Table1(ds...)))
		case "2":
			fmt.Print(analysis.RenderTable2(analysis.Table2(15, ds...)))
		case "3":
			fmt.Print(analysis.RenderTable3(analysis.Table3(15, ds...)))
		case "4":
			fmt.Print(analysis.RenderTable4(analysis.Table4(15, ds...)))
		case "5":
			fmt.Print(analysis.RenderTable5(analysis.Table5(ds...)))
		case "overview":
			fmt.Print(analysis.RenderOverview(analysis.ComputeOverview(ds...)))
		case "churn":
			fmt.Print(analysis.RenderChurn(analysis.ComputeChurn(ds[0], ds[len(ds)-1], analysis.UnionAASet(ds...))))
		default:
			fmt.Fprintf(os.Stderr, "wsrepro: unknown table %q\n", *table)
			os.Exit(2)
		}
	case *figure != "":
		switch *figure {
		case "1":
			fmt.Print(analysis.RenderFigure1())
		case "3":
			fmt.Print(analysis.RenderFigure3(analysis.Figure3(100_000, ds...)))
		case "4":
			fmt.Print(analysis.RenderFigure4(analysis.Figure4(6, ds...)))
		default:
			fmt.Fprintf(os.Stderr, "wsrepro: unknown figure %q\n", *figure)
			os.Exit(2)
		}
	default:
		fmt.Print(study.Report())
	}
	fmt.Fprintf(os.Stderr, "\n[%d crawls, %s elapsed]\n", len(ds), time.Since(start).Round(time.Millisecond))
}

// figure2Demo builds the paper's Figure 2 example trace and renders the
// DOM tree next to the inclusion tree.
func figure2Demo() string {
	tr := devtools.NewTrace()
	for _, ev := range []devtools.Event{
		devtools.FrameNavigated{FrameID: "F1", URL: "http://pub/index.html", Initiator: devtools.ParserInitiator("F1")},
		devtools.ScriptParsed{ScriptID: "S1", URL: "http://pub/script.js", FrameID: "F1", Initiator: devtools.ParserInitiator("F1")},
		devtools.ScriptParsed{ScriptID: "S2", URL: "http://ads/script.js", FrameID: "F1", Initiator: devtools.ScriptInitiator("S1")},
		devtools.RequestWillBeSent{RequestID: "R1", URL: "http://ads/image.img", Type: devtools.ResourceImage, FrameID: "F1", Initiator: devtools.ScriptInitiator("S2"), FirstPartyURL: "http://pub/index.html"},
		devtools.WebSocketCreated{SocketID: "W1", URL: "ws://adnet/data.ws", FrameID: "F1", Initiator: devtools.ScriptInitiator("S2"), FirstPartyURL: "http://pub/index.html"},
		devtools.ScriptParsed{ScriptID: "S3", URL: "http://tracker/script.js", FrameID: "F1", Initiator: devtools.ParserInitiator("F1")},
	} {
		tr.Record(ev)
	}
	tree, err := inclusion.Build(tr)
	if err != nil {
		return fmt.Sprintf("figure 2 demo failed: %v\n", err)
	}
	return "Figure 2: inclusion tree for the paper's example page\n" +
		"(note the WebSocket as a child of the requesting JavaScript)\n\n" +
		tree.RenderASCII()
}

// writeCSVs exports plot-ready CSVs for the study.
func writeCSVs(dir string, ds []*analysis.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fn(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(dir, name))
		return nil
	}
	if err := write("table1.csv", func(f *os.File) error {
		return analysis.WriteTable1CSV(f, analysis.Table1(ds...))
	}); err != nil {
		return err
	}
	if err := write("figure3.csv", func(f *os.File) error {
		return analysis.WriteFigure3CSV(f, analysis.Figure3Binned(analysis.DefaultRankEdges, ds...))
	}); err != nil {
		return err
	}
	return write("sockets.csv", func(f *os.File) error {
		return analysis.WriteSocketsCSV(f, ds...)
	})
}
