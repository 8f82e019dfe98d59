// Command wscrawl runs a single crawl of the synthetic web and writes
// the measurement dataset as JSON, for later analysis with wsanalyze.
//
// Usage:
//
//	wscrawl -out crawl1.json [-era pre|post] [-index N] [-publishers N]
//	        [-workers N] [-pages N] [-seed S] [-version 57]
//	        [-checkpoint FILE] [-spool-dir DIR] [-resume] [-retries N]
//	        [-shards N] [-store] [-store-dir DIR]
//	        [-metrics-addr HOST:PORT] [-progress DUR]
//	        [-fault-profile NAME] [-fault-seed S]
//	wscrawl -worker ws://HOST:PORT/fabric [-worker-name NAME] [-workers N]
//	        [-seed S] [-fault-profile NAME] [-fault-seed S]
//
// With -worker the process joins a wscoordd coordinator as a crawl
// worker instead of running its own crawl: it pulls leased site batches
// over WebSocket, rebuilds the synthetic world from the coordinator's
// crawl config, runs the normal page pipeline, and streams page records
// back (internal/fabric). Most local-crawl flags are irrelevant in this
// mode — the coordinator dictates the crawl — and -out is not needed;
// -workers still sets the in-process crawl parallelism, -seed drives
// only dial backoff and frame masking, and -fault-profile degrades the
// coordinator link. See OPERATIONS.md "Distributed crawls".
//
// -fault-profile degrades the crawl's network with deterministic,
// seeded fault injection (internal/faultnet): latency, torn writes,
// truncation, resets, handshake stalls — per the named profile. The
// same -fault-seed reproduces the same fault schedule and therefore
// the same dataset. See OPERATIONS.md "Chaos testing".
//
// With -checkpoint or -spool-dir the crawl runs through the durable
// orchestrator (internal/dispatch): progress is checkpointed, failed
// sites are retried with backoff, pages are spooled to sharded JSONL
// files as they arrive, and -resume continues an interrupted crawl
// without re-visiting completed sites. The dataset is always written
// atomically (temp file + rename), so a crash cannot leave a truncated
// JSON file behind.
//
// -store additionally streams every page into an embedded columnar
// store (internal/colstore) next to the spool, sealed durably at each
// checkpoint, so the dataset is queryable with wsquery while the crawl
// runs and after it finishes. -store-dir overrides the store location
// (and implies -store). Requires the durable orchestrator. See
// OPERATIONS.md "Query service".
//
// -metrics-addr serves expvar (/debug/vars) and pprof (/debug/pprof)
// on the given address (":0" picks a port, printed to stderr).
// -progress prints a crawl progress line to stderr at the given
// interval: pages/sec, queue depth, retries, and per-stage latency
// quantiles. Neither affects the output dataset — metrics observe the
// crawl, they never feed back into it. See OPERATIONS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/webgen"
)

func main() {
	var (
		out         = flag.String("out", "", "output dataset path (required)")
		eraFlag     = flag.String("era", "pre", "crawl era: pre or post (relative to the Chrome 58 patch)")
		index       = flag.Int("index", 0, "crawl index (perturbs session randomness)")
		publishers  = flag.Int("publishers", 600, "number of generic publishers")
		workers     = flag.Int("workers", 8, "parallel crawl workers")
		pages       = flag.Int("pages", 15, "page budget per site")
		seed        = flag.Int64("seed", 20170419, "world seed")
		version     = flag.Int("version", 0, "browser version (default: 57 pre-patch, 58 post-patch)")
		checkpoint  = flag.String("checkpoint", "", "checkpoint state file (enables the durable orchestrator)")
		spoolDir    = flag.String("spool-dir", "", "spool shard directory (enables the durable orchestrator)")
		resume      = flag.Bool("resume", false, "resume an interrupted crawl from its checkpoint")
		retries     = flag.Int("retries", 0, "per-site attempt budget for the orchestrator (default 3)")
		shards      = flag.Int("shards", 0, "spool shard count (default 8)")
		storeFlag   = flag.Bool("store", false, "stream pages into an embedded columnar store (requires the durable orchestrator; query with wsquery)")
		storeDir    = flag.String("store-dir", "", "columnar store directory (default: <spool parent>/store-crawl<index>; implies -store)")
		metricsAddr = flag.String("metrics-addr", "", "serve expvar + pprof on this address (\":0\" picks a port)")
		progress    = flag.Duration("progress", 0, "print progress to stderr at this interval (0 = off)")
		faultProf   = flag.String("fault-profile", "", "inject network faults from this profile: "+strings.Join(faultnet.Names(), ", "))
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the fault schedules (same seed = same faults)")
		workerURL   = flag.String("worker", "", "join the wscoordd coordinator at this ws:// URL as a crawl worker")
		workerName  = flag.String("worker-name", "", "worker name in coordinator logs (default: w<pid>)")
	)
	flag.Parse()
	if *workerURL != "" {
		name := *workerName
		if name == "" {
			name = fmt.Sprintf("w%d", os.Getpid())
		}
		err := core.RunFabricWorker(context.Background(), core.FabricWorkerOptions{
			Name:         name,
			URL:          *workerURL,
			Workers:      *workers,
			Seed:         *seed,
			FaultProfile: *faultProf,
			FaultSeed:    *faultSeed,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "wscrawl: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "wscrawl:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wscrawl: worker %s done: crawl drained\n", name)
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "wscrawl: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wscrawl:", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "wscrawl: metrics on http://%s/debug/vars (pprof at /debug/pprof/)\n", msrv.Addr())
	}
	if *progress > 0 {
		rep := obs.NewReporter(os.Stderr, *progress, obs.Default)
		rep.Start()
		defer rep.Stop()
	}

	era := webgen.EraPrePatch
	if *eraFlag == "post" {
		era = webgen.EraPostPatch
	} else if *eraFlag != "pre" {
		fmt.Fprintf(os.Stderr, "wscrawl: unknown era %q\n", *eraFlag)
		os.Exit(2)
	}
	bv := *version
	if bv == 0 {
		bv = 57
		if era == webgen.EraPostPatch {
			bv = 58
		}
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

	opts.Store = *storeFlag || *storeDir != ""
	if *checkpoint != "" || *spoolDir != "" || *resume {
		cp, sd := *checkpoint, *spoolDir
		// Derive whichever of the two paths was not given from the
		// other, so a single flag is enough to go durable.
		if sd == "" {
			sd = filepath.Join(filepath.Dir(cp), "spool")
		}
		if cp == "" {
			cp = filepath.Join(sd, "checkpoint.json")
		}
		st := *storeDir
		if st == "" && opts.Store {
			st = filepath.Join(filepath.Dir(sd), fmt.Sprintf("store-crawl%d", *index))
		}
		opts.Dispatch = &core.DispatchOptions{
			CheckpointPath: cp,
			SpoolDir:       sd,
			StoreDir:       st,
			Resume:         *resume,
			MaxAttempts:    *retries,
			NumShards:      *shards,
		}
	} else if opts.Store {
		fmt.Fprintln(os.Stderr, "wscrawl: -store requires the durable orchestrator; pass -checkpoint or -spool-dir")
		os.Exit(2)
	}

	res, err := core.RunCrawl(context.Background(), opts, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wscrawl:", err)
		os.Exit(1)
	}

	if err := dispatch.WriteAtomic(*out, res.Dataset.WriteJSON); err != nil {
		fmt.Fprintln(os.Stderr, "wscrawl:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wscrawl: %d sites, %d pages, %d sockets, %d A&A domains -> %s\n",
		len(res.Dataset.Sites), res.Stats.Pages, len(res.Dataset.Sockets), len(res.Dataset.AADomains), *out)
	if d := res.Dispatch; d != nil {
		fmt.Fprintf(os.Stderr, "wscrawl: dispatch: %d/%d sites done, %d failed, %d retries, %d lease requeues, %d resumed from checkpoint\n",
			d.Progress.Done, d.Progress.Total, d.Progress.Failed, d.Progress.Retries, d.Progress.Requeues, d.ResumedDone)
	}
	if opts.Store {
		fmt.Fprintf(os.Stderr, "wscrawl: columnar store sealed at %s (query with: wsquery -store-dir %s -addr :0)\n",
			opts.Dispatch.StoreDir, opts.Dispatch.StoreDir)
	}
}
