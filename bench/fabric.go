package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fabric/wire"
	"repro/internal/obs"
)

// The fabric workload: crawl 0 through core.StartFabricCoordinator and
// in-process core.RunFabricWorker sessions over loopback TCP — real page
// loads, wire JSON frames, wsproto framing, coordinator ingest and the
// end-of-run shard merge. Same pages as one study crawl, so the per-page
// gap to study is the fabric's cost.

const (
	fabricBatchSize = 16
	fabricWorkers   = 2 // fabric workers, each with one crawl worker
)

// Span names of the traced fabric pass.
const (
	spanCoordStart = "core.StartFabricCoordinator"
	spanRunBatch   = "fabric.RunBatch"
	spanEmit       = "fabric.emit"
	spanCoordFinal = "fabric.Finalize"
)

// workerStarter attaches one worker to the coordinator at url and blocks
// until the crawl drains.
type workerStarter func(ctx context.Context, name, url string, seed int64) error

// plainWorker is the production worker: core.RunFabricWorker with one
// crawl worker.
func plainWorker(ctx context.Context, name, url string, seed int64) error {
	return core.RunFabricWorker(ctx, core.FabricWorkerOptions{Name: name, URL: url, Workers: 1, Seed: seed})
}

// runFabricCrawl times one fabric crawl of crawl 0 from coordinator
// start to merged dataset, with nWorkers workers attached through
// start. tr, when non-nil, receives spans around the coordinator calls.
func runFabricCrawl(ctx context.Context, cfg runConfig, nWorkers int, start workerStarter, tr *tracer) (*crawlRun, error) {
	dir, err := stateDir(cfg.StateRoot, "fabric")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec := core.DefaultCrawls()[0]
	opts := crawlOptions(cfg, dir, 1, false)
	od := obsStart()
	runtime.GC()
	p := startProbe()

	spanned := func(name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		id := tr.begin(name, -1)
		defer tr.end(id)
		return fn()
	}
	var coord *fabric.Coordinator
	if err := spanned(spanCoordStart, func() (err error) {
		coord, err = core.StartFabricCoordinator(opts, spec, core.FabricCoordinatorOptions{
			Addr:           "127.0.0.1:0",
			BatchSize:      fabricBatchSize,
			CheckpointPath: filepath.Join(dir, "fabric.checkpoint.json"),
			SpoolDir:       filepath.Join(dir, "spool"),
		})
		return err
	}); err != nil {
		return nil, err
	}
	defer coord.Close()

	workerErrs := make([]error, nWorkers)
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = start(ctx, fmt.Sprintf("bench-w%d", i), coord.URL(), cfg.Seed+int64(i))
		}(i)
	}
	waitErr := coord.Wait(ctx)
	wg.Wait()
	if waitErr != nil {
		return nil, waitErr
	}
	for _, werr := range workerErrs {
		if werr != nil {
			return nil, fmt.Errorf("fabric worker: %w", werr)
		}
	}
	run := &crawlRun{}
	if err := spanned(spanCoordFinal, func() error {
		ds, stats, err := coord.Finalize(core.FabricDatasetMeta(spec))
		if err != nil {
			return err
		}
		run.pages = int64(stats.Pages)
		digest, err := datasetDigest(ds)
		run.digests = []string{digest}
		return err
	}); err != nil {
		return nil, err
	}
	run.cost = p.stop()
	od.stop()
	if err := coord.Close(); err != nil {
		return nil, err
	}
	failedSites := int64(len(coord.FailedSites()))
	pageErrors := int64(od.counter(obs.MPageErrors))
	run.failed = failedSites + pageErrors
	run.attempted = run.pages + run.failed
	if run.pages == 0 {
		return nil, fmt.Errorf("fabric crawl recorded no pages")
	}
	if run.disk, err = dirBytes(dir); err != nil {
		return nil, err
	}
	return run, nil
}

func runFabric(ctx context.Context, cfg runConfig) (*result, error) {
	if cfg.Traced {
		return runFabricTraced(ctx, cfg)
	}
	res := newResult()
	setup, err := medianSetup(crawlSetupReps, func() (float64, error) { return crawlSetup(ctx, cfg) })
	if err != nil {
		return nil, err
	}
	var runs []*crawlRun
	if _, err := repeatFor(cfg.Seconds, func(rep int) error {
		r, err := runFabricCrawl(ctx, cfg.forRep(rep), fabricWorkers, plainWorker, nil)
		if err != nil {
			return err
		}
		runs = append(runs, r)
		return nil
	}); err != nil {
		return nil, err
	}
	ref, err := referenceCrawl0(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if runs[0].digests[0] != ref {
		return nil, fmt.Errorf("merged fabric dataset (sha256 %s) differs from the plain dispatch path's crawl 0 (sha256 %s)", runs[0].digests[0], ref)
	}
	res.setEndToEnd(setup, runs)
	res.Digests["crawl0"] = runs[0].digests[0]
	res.notef("%d fabric crawls (seeds %d..%d) of about %d pages each (crawl 0, %d publishers x %d pages, batch %d, %d workers x 1 crawl worker)",
		len(runs), cfg.Seed, cfg.Seed+int64(len(runs))-1, runs[0].pages, cfg.Size.Publishers, cfg.Size.PagesPerSite, fabricBatchSize, fabricWorkers)
	return res, nil
}

// pageLine is one streamed page record kept for the wire replay.
type pageLine struct {
	batch, site string
	line        []byte
}

// tracedRunner wraps the production batch runner with spans: one around
// each RunBatch, one child around each emit (wire encode + WebSocket
// write). What is left of RunBatch after its emits is the worker's page
// plane, which the harness cannot see into.
type tracedRunner struct {
	inner fabric.BatchRunner
	tr    *tracer
	lines *[]pageLine
}

func (r *tracedRunner) RunBatch(ctx context.Context, batch wire.Batch, emit func(site string, line []byte) error) (int, map[string]string, error) {
	id := r.tr.begin(spanRunBatch, -1)
	defer r.tr.end(id)
	return r.inner.RunBatch(ctx, batch, func(site string, line []byte) error {
		eid := r.tr.begin(spanEmit, -1)
		err := emit(site, line)
		r.tr.end(eid)
		*r.lines = append(*r.lines, pageLine{batch: batch.ID, site: site, line: append([]byte(nil), line...)})
		return err
	})
}

func (r *tracedRunner) Close() error { return r.inner.Close() }

// runFabricTraced is the per-layer pass: an untraced single-worker
// fabric crawl (base for the overhead ratio, source of obs counts), then
// the same crawl with the traced runner, then a replay of wire
// encode/decode over the captured page lines.
func runFabricTraced(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult()
	var perRep []map[string]float64
	if _, err := repeatFor(cfg.Seconds, func(rep int) error {
		cfg := cfg.forRep(rep)
		od := obsStart()
		un, err := runFabricCrawl(ctx, cfg, 1, plainWorker, nil)
		if err != nil {
			return err
		}
		od.stop()

		tr := newTracer()
		var lines []pageLine
		tracedWorker := func(ctx context.Context, name, url string, seed int64) error {
			return fabric.RunWorker(ctx, fabric.WorkerConfig{
				Name: name,
				URL:  url,
				Seed: seed,
				NewRunner: func(c wire.CrawlConfig) (fabric.BatchRunner, error) {
					inner, err := core.NewFabricRunner(c, 1)
					if err != nil {
						return nil, err
					}
					return &tracedRunner{inner: inner, tr: tr, lines: &lines}, nil
				},
			})
		}
		root := tr.begin(spanRoot, -1)
		traced, err := runFabricCrawl(ctx, cfg, 1, tracedWorker, tr)
		if err != nil {
			return err
		}
		tr.end(root)
		if traced.digests[0] != un.digests[0] {
			return fmt.Errorf("traced fabric dataset (sha256 %s) differs from the untraced one (sha256 %s)", traced.digests[0], un.digests[0])
		}
		res.Attempted += un.attempted + traced.attempted
		res.Failed += un.failed + traced.failed
		if rep == 0 {
			res.Spans = tr.spans
			res.Digests["crawl0"] = un.digests[0]
		}
		m, err := fabricLayerMetrics(un, &od, traced, tr.spans, lines)
		if err != nil {
			return err
		}
		perRep = append(perRep, m)
		return nil
	}); err != nil {
		return nil, err
	}
	res.setMedians(perRep)
	res.notef("%d passes: untraced then traced fabric crawl, 1 worker x 1 crawl worker, merged datasets byte-identical", len(perRep))
	return res, nil
}

func fabricLayerMetrics(un *crawlRun, od *obsDelta, traced *crawlRun, spans []span, lines []pageLine) (map[string]float64, error) {
	self := selfTimes(spans)
	dur, _ := spanTotals(spans)
	pages := float64(traced.pages)
	unPages := float64(un.pages)
	perPageUS := func(ns int64) float64 { return float64(ns) / 1e3 / pages }
	m := untracedPassMetrics(un, od)
	m["fabric.run_batch_self_us_per_page"] = perPageUS(self[spanRunBatch])
	m["fabric.emit_us_per_page"] = perPageUS(dur[spanEmit])
	m["fabric.worker_idle_ratio"] = 1 - float64(dur[spanRunBatch])/float64(dur[spanRoot])
	m["fabric.heartbeats"] = od.counter(obs.MFabricHeartbeats)
	m["fabric.finalize_ms"] = float64(dur[spanCoordFinal]) / 1e6
	m["analysis.merge_ms"] = float64(dur[spanCoordFinal]) / 1e6
	m["trace.unaccounted_us_per_page"] = perPageUS(self[spanRoot])
	m["trace.overhead_ratio"] = (traced.cost.Wall / pages) / (un.cost.Wall / unPages)

	// Wire replay: encode and decode every captured page frame again,
	// timed, with the allocation count of the decode side.
	frames := make([][]byte, 0, len(lines))
	t := time.Now()
	for _, l := range lines {
		frame, err := wire.Encode(&wire.Page{Batch: l.batch, Site: l.site, Line: json.RawMessage(l.line)})
		if err != nil {
			return nil, fmt.Errorf("wire replay: %w", err)
		}
		frames = append(frames, frame)
	}
	m["fabric.wire_encode_us_per_page"] = perPageUS(time.Since(t).Nanoseconds())
	p := startProbe()
	for _, frame := range frames {
		if _, err := wire.Decode(frame); err != nil {
			return nil, fmt.Errorf("wire replay: %w", err)
		}
	}
	c := p.stop()
	m["fabric.wire_decode_us_per_page"] = c.Wall * 1e6 / pages
	if len(frames) > 0 {
		m["fabric.wire_decode_allocs"] = float64(c.Mallocs) / float64(len(frames))
	}
	return m, nil
}
