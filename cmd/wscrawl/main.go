// Command wscrawl runs one crawl of the synthetic web and writes its
// dataset as JSON (render it with wsrepro crawl.json), in one process
// or spread over a coordinator and any number of workers.
//
// Usage:
//
//	wscrawl -out crawl1.json [-era pre|post] [-index N] [-publishers N]
//	        [-workers N] [-pages N] [-seed S] [-version 57]
//	        [-store-dir DIR] [-resume] [-retries N]
//	        [-metrics-addr HOST:PORT] [-progress DUR]
//	        [-fault-profile NAME] [-fault-seed S]
//	wscrawl -coordinate HOST:PORT -out crawl1.json -store-dir DIR
//	        [crawl flags above] [-batch-size N] [-lease-ttl DUR]
//	        [-query-addr HOST:PORT]
//	wscrawl -worker ws://HOST:PORT/fabric [-worker-name NAME] [-workers N]
//	        [-seed S]
//
// Every crawl runs through dispatch's durable grant loop
// (internal/dispatch), in-process or, with -coordinate, over the wire to
// -worker processes: failed sites retry with backoff up to -retries
// attempts each, every page and every settled attempt's outcome streams
// into a columnar store (internal/colstore) sealed at each commit and
// queryable with wsquery during and after the crawl, -out is derived
// from that store, and the run ends with one "dispatch: N/M sites done,
// …" outcome line. The store is the crawl's one durable state:
// -store-dir keeps it; without -store-dir it lives in a temporary
// directory removed at exit. -resume continues an interrupted crawl
// from its -store-dir without re-visiting completed sites.
// SIGINT/SIGTERM commit what has settled and exit 1, with a -resume hint
// when the store has a location. The dataset is written atomically, so
// a crash never leaves a truncated file.
//
// -coordinate serves the same durable crawl to -worker processes
// instead of crawling: the same site queue is leased over WebSocket in
// grants of up to -batch-size sites (-lease-ttl), the streamed pages go
// to the same ledger, and a site a worker reports failed retries under
// the same per-site -retries budget, and -query-addr serves the query
// API over the live store. The "serving ws://…" line names the worker
// URL. Restarted with the same flags and -resume on the same address,
// it continues from the last commit while workers retry their dials;
// either role resumes the other's store. A worker takes its crawl
// config from the coordinator, -fault-profile and -fault-seed included
// (on a worker they are a usage error); its -seed drives only dial
// backoff and frame masking. The dataset is byte-identical to a local
// crawl's for any number of workers, faulted or not (DESIGN.md §12,
// OPERATIONS.md "Distributed crawls").
//
// -fault-profile injects seeded network faults (internal/faultnet) into
// every page connection, in either role: the same -fault-seed, the same
// dataset. -metrics-addr (expvar + pprof) and -progress (stderr) only
// observe. See OPERATIONS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/webgen"
)

func main() { os.Exit(run(os.Args[1:])) }

// logf prints one stderr line under the command's prefix.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wscrawl: "+format+"\n", args...)
}

// run is the whole command; it returns the exit status so deferred
// clean-up runs on every path.
func run(args []string) int {
	fs := flag.NewFlagSet("wscrawl", flag.ContinueOnError)
	var (
		out         = fs.String("out", "", "output dataset path (required)")
		eraFlag     = fs.String("era", "pre", "crawl era: pre or post (relative to the Chrome 58 patch)")
		index       = fs.Int("index", 0, "crawl index (perturbs session randomness)")
		publishers  = fs.Int("publishers", 600, "number of generic publishers")
		workers     = fs.Int("workers", 8, "parallel crawl workers")
		pages       = fs.Int("pages", 15, "page budget per site")
		seed        = fs.Int64("seed", 20170419, "world seed")
		version     = fs.Int("version", 0, "browser version (default: 57 pre-patch, 58 post-patch)")
		storeDir    = fs.String("store-dir", "", "columnar store directory, the crawl's one durable state, queryable with wsquery (default: a temp dir removed at exit)")
		resume      = fs.Bool("resume", false, "resume an interrupted crawl from its -store-dir")
		retries     = fs.Int("retries", 0, "per-site attempt budget, in either role (default 3)")
		metricsAddr = fs.String("metrics-addr", "", "serve expvar + pprof on this address (\":0\" picks a port)")
		progress    = fs.Duration("progress", 0, "print progress to stderr at this interval (0 = off)")
		faultProf   = fs.String("fault-profile", "", "inject network faults from this profile: "+strings.Join(faultnet.Names(), ", "))
		faultSeed   = fs.Int64("fault-seed", 1, "seed for the fault schedules (same seed = same faults)")
		coordAddr   = fs.String("coordinate", "", "coordinate a distributed crawl: lease sites to -worker processes on this address (\":0\" picks a port)")
		batchSize   = fs.Int("batch-size", 0, "with -coordinate: most sites per grant (default 16)")
		leaseTTL    = fs.Duration("lease-ttl", 0, "with -coordinate: grant lease TTL (default 30s)")
		queryAddr   = fs.String("query-addr", "", "with -coordinate: serve the store query API on this address")
		workerURL   = fs.String("worker", "", "join the coordinator at this ws:// URL as a crawl worker")
		workerName  = fs.String("worker-name", fmt.Sprintf("w%d", os.Getpid()), "worker name in coordinator logs")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		logf("%s", msg)
		fs.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerURL != "" {
		if *coordAddr != "" {
			return usage("-worker and -coordinate are two roles; pick one")
		}
		faulted := false
		fs.Visit(func(f *flag.Flag) { faulted = faulted || f.Name == "fault-profile" || f.Name == "fault-seed" })
		if faulted {
			return usage("-fault-profile and -fault-seed are set on -coordinate; a worker takes them from the coordinator")
		}
		err := core.RunFabricWorker(ctx, core.FabricWorkerOptions{
			Name:    *workerName,
			URL:     *workerURL,
			Workers: *workers,
			Seed:    *seed,
			Logf:    logf,
		})
		if err != nil {
			logf("%v", err)
			return 1
		}
		logf("worker %s done: crawl drained", *workerName)
		return 0
	}
	if *out == "" {
		return usage("-out is required")
	}

	era, err := webgen.ParseEra(*eraFlag)
	if err != nil {
		return usage(err.Error())
	}
	bv := 57
	if era == webgen.EraPostPatch {
		bv = 58
	}
	if *version != 0 {
		bv = *version
	}
	spec := core.CrawlSpec{
		Name:           fmt.Sprintf("%s-crawl-%d", era, *index),
		Era:            era,
		CrawlIndex:     *index,
		BrowserVersion: bv,
	}
	opts := core.Options{
		Seed: *seed, NumPublishers: *publishers, Workers: *workers, PagesPerSite: *pages,
		FaultProfile: *faultProf, FaultSeed: *faultSeed,
	}
	// Every crawl keeps a store; only state that must outlive the
	// process needs a location (without one, core keeps it in a
	// temporary directory).
	located := *storeDir != ""
	switch {
	case *resume && !located:
		return usage("-resume requires -store-dir")
	case *coordAddr != "" && !located:
		return usage("-coordinate requires -store-dir")
	case *queryAddr != "" && *coordAddr == "":
		return usage("-query-addr requires -coordinate")
	}
	opts.Dispatch = &core.DispatchOptions{
		StoreDir:    *storeDir,
		Resume:      *resume,
		MaxAttempts: *retries,
	}

	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			logf("%v", err)
			return 1
		}
		defer msrv.Close()
		logf("metrics on http://%s/debug/vars (pprof at /debug/pprof/)", msrv.Addr())
	}
	if *progress > 0 {
		rep := obs.NewReporter(os.Stderr, *progress, obs.Default)
		rep.Start()
		defer rep.Stop()
	}

	var (
		ds      *analysis.Dataset
		crawled int
	)
	if *coordAddr != "" {
		ds, crawled, err = coordinate(ctx, opts, spec, *coordAddr, *batchSize, *leaseTTL, *queryAddr)
	} else {
		ds, crawled, err = crawlHere(ctx, opts, spec)
	}
	if err != nil {
		logf("%v", err)
		if ctx.Err() != nil && located {
			logf("interrupted; progress committed to %s; rerun with the same flags and -resume to continue", *storeDir)
		}
		return 1
	}

	if err := colstore.WriteAtomic(*out, ds.WriteJSON); err != nil {
		logf("%v", err)
		return 1
	}
	logf("%d sites, %d pages, %d sockets, %d A&A domains -> %s",
		len(ds.Sites), crawled, len(ds.Sockets), len(ds.AADomains), *out)
	if located {
		logf("columnar store sealed at %s (query with: wsquery -store-dir %s -addr :0)", *storeDir, *storeDir)
	}
	return 0
}

// crawlHere runs the crawl in this process and returns its dataset and
// page count.
func crawlHere(ctx context.Context, opts core.Options, spec core.CrawlSpec) (*analysis.Dataset, int, error) {
	res, err := core.RunCrawl(ctx, opts, spec)
	if err != nil {
		return nil, 0, err
	}
	logSites(res.Dispatch.Progress, res.Dispatch.ResumedDone)
	return res.Dataset, int(res.Stats.Pages), nil
}

// logSites prints the crawl's site outcomes, the one summary line of
// either role.
func logSites(p dispatch.Progress, resumed int) {
	logf("dispatch: %d/%d sites done, %d failed, %d retries, %d lease requeues, %d resumed from the store",
		p.Done, p.Total, p.Failed, p.Retries, p.Requeues, resumed)
}

// coordinate leases the crawl's sites to -worker processes on addr until
// every site has settled, then derives the dataset from the ledger the
// workers' pages were appended to.
func coordinate(ctx context.Context, opts core.Options, spec core.CrawlSpec, addr string, batchSize int, leaseTTL time.Duration, queryAddr string) (*analysis.Dataset, int, error) {
	d := opts.Dispatch
	coord, err := core.StartFabricCoordinator(opts, spec, core.FabricCoordinatorOptions{
		Addr:        addr,
		BatchSize:   batchSize,
		LeaseTTL:    leaseTTL,
		MaxAttempts: d.MaxAttempts,
		StoreDir:    d.StoreDir,
		Resume:      d.Resume,
		Logf:        logf,
	})
	if err != nil {
		return nil, 0, err
	}
	// An early return (interrupt, listen failure) still commits every
	// settled site for a -resume run.
	defer coord.Close()
	if queryAddr != "" {
		ln, err := net.Listen("tcp", queryAddr)
		if err != nil {
			return nil, 0, err
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, colstore.NewHandler(coord.Store())) }()
		logf("query API on http://%s (live: /dataset, /tables, /chains)", ln.Addr())
	}
	// The e2e harness scrapes this exact line for the worker URL.
	logf("serving %s", coord.URL())
	if err := coord.Wait(ctx); err != nil {
		return nil, 0, err
	}

	ds, stats, err := coord.Finalize(core.FabricDatasetMeta(spec))
	if err == nil {
		err = coord.Close()
	}
	if err != nil {
		return nil, 0, err
	}
	logSites(coord.Progress(), coord.ResumedDone())
	return ds, stats.Pages, nil
}
