package dispatch

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/colstore"
)

const (
	ledgerSites = 9
	ledgerPages = 3
)

var ledgerMeta = analysis.DatasetMeta{Name: "ledger-test", Era: "pre-patch"}

func ledgerSite(i int) string { return fmt.Sprintf("site%02d.com", i) }

// ledgerRecord is page p of site i: enough structure (a socket on even
// pages, HTTP and labeler deltas on all) that fold, store and merge have
// real aggregation to agree on.
func ledgerRecord(i, p int) *analysis.PageRecord {
	site := ledgerSite(i)
	page := fmt.Sprintf("http://%s/p%d", site, p)
	rec := &analysis.PageRecord{
		Site: site, Rank: i + 1, PageURL: page,
		HTTP: map[string]*analysis.DomainTraffic{
			"cdn.com": {Domain: "cdn.com", Requests: 3 + p, SentItems: map[string]int{"user-agent": 3}},
		},
		AAObs:    map[string]int{"tracker.com": 1 + p},
		NonAAObs: map[string]int{"cdn.com": 3},
	}
	if p%2 == 0 {
		rec.Sockets = []analysis.SocketRecord{{
			Site: site, Rank: i + 1, PageURL: page,
			URL: "ws://tracker.com/ws", ReceiverDomain: "tracker.com", InitiatorDomain: "tracker.com",
			ChainDomains: []string{site, "tracker.com"},
			CrossOrigin:  true, HandshakeOK: true, FramesSent: 1 + p,
			SentItems: []string{"cookies"},
		}}
	}
	return rec
}

// ledgerRun drives one Ledger the way its two callers do: append a
// job's pages, mark the job done, commit every other job.
type ledgerRun struct {
	t     *testing.T
	dir   string
	store bool
	lines bool
	l     *Ledger
	jobs  []JobRecord
}

func (r *ledgerRun) open(resume bool) {
	r.t.Helper()
	cfg := LedgerConfig{
		Crawl:          Checkpoint{Name: "ledger-test", Seed: 7, NumShards: 3, PagesPerSite: ledgerPages, TotalSites: ledgerSites},
		Meta:           ledgerMeta,
		SpoolDir:       filepath.Join(r.dir, "spool"),
		CheckpointPath: filepath.Join(r.dir, "cp.json"),
		Resume:         resume,
	}
	if r.store {
		cfg.StoreDir = filepath.Join(r.dir, "store")
	}
	l, err := OpenLedger(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.l = l
	r.jobs = nil
	if cp := l.Resumed(); cp != nil {
		r.jobs = cp.Jobs()
	}
}

func (r *ledgerRun) append(i, p int) {
	r.t.Helper()
	rec := ledgerRecord(i, p)
	var err error
	if r.lines {
		var buf bytes.Buffer
		if err := analysis.EncodeSpoolRecord(&buf, rec); err != nil {
			r.t.Fatal(err)
		}
		err = r.l.AppendLine(rec.Site, bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
	} else {
		err = r.l.Append(rec)
	}
	if err != nil {
		r.t.Fatal(err)
	}
}

// crawl appends sites [from, to) in full, committing after every second
// one and checking the commit invariants each time.
func (r *ledgerRun) crawl(from, to int) {
	r.t.Helper()
	for i := from; i < to; i++ {
		for p := 0; p < ledgerPages; p++ {
			r.append(i, p)
		}
		r.jobs = append(r.jobs, JobRecord{Domain: ledgerSite(i), State: JobDone})
		if (i-from)%2 == 1 {
			r.commit()
		}
	}
}

// commit commits and asserts invariant (a): the checkpoint's shardBytes
// equal the on-disk shard sizes, and every page of every done job is on
// disk — in the spool, and with a store in sealed segments.
func (r *ledgerRun) commit() {
	r.t.Helper()
	if err := r.l.Commit(func() ([]JobRecord, map[string]string) { return r.jobs, nil }); err != nil {
		r.t.Fatal(err)
	}
	cp, err := LoadCheckpoint(r.l.cfg.CheckpointPath)
	if err != nil {
		r.t.Fatal(err)
	}
	spooled := map[string]bool{}
	for i, path := range r.l.spool.Paths() {
		data, err := os.ReadFile(path)
		if err != nil {
			r.t.Fatal(err)
		}
		if int64(len(data)) != cp.ShardBytes[i] {
			r.t.Errorf("shard %d: checkpoint vouches for %d bytes, %d on disk", i, cp.ShardBytes[i], len(data))
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			rec, err := analysis.DecodeSpoolLine(line)
			if err != nil {
				r.t.Fatal(err)
			}
			spooled[rec.PageURL] = true
		}
	}
	sealed := map[string]bool{}
	if r.store {
		segs, err := filepath.Glob(filepath.Join(r.l.cfg.StoreDir, "seg-*.col"))
		if err != nil {
			r.t.Fatal(err)
		}
		for _, seg := range segs {
			recs, err := colstore.ReadSegment(seg)
			if err != nil {
				r.t.Fatal(err)
			}
			for _, rec := range recs {
				sealed[rec.PageURL] = true
			}
		}
	}
	for _, dom := range cp.Done {
		for p := 0; p < ledgerPages; p++ {
			page := fmt.Sprintf("http://%s/p%d", dom, p)
			if !spooled[page] {
				r.t.Errorf("checkpoint marks %s done but %s is not in the flushed spool", dom, page)
			}
			if r.store && !sealed[page] {
				r.t.Errorf("checkpoint marks %s done but %s is not in a sealed segment", dom, page)
			}
		}
	}
}

// finish commits, finalizes, asserts invariant (b) — Finalize is
// byte-equal to the merge of the ledger's own spool, the retained oracle
// — and closes the ledger.
func (r *ledgerRun) finish() []byte {
	r.t.Helper()
	r.commit()
	ds, stats, err := r.l.Finalize()
	if err != nil {
		r.t.Fatal(err)
	}
	oracle, ostats, err := analysis.MergeShards(ledgerMeta, r.l.spool.Paths())
	if err != nil {
		r.t.Fatal(err)
	}
	got := datasetBytes(r.t, ds)
	if !bytes.Equal(got, datasetBytes(r.t, oracle)) {
		r.t.Error("Finalize differs from the merge of the ledger's own spool")
	}
	if stats.Pages != ostats.Pages || stats.Pages != ledgerSites*ledgerPages {
		r.t.Errorf("Finalize saw %d pages, the merge %d, want %d", stats.Pages, ostats.Pages, ledgerSites*ledgerPages)
	}
	if err := r.l.Close(); err != nil {
		r.t.Fatal(err)
	}
	return got
}

// TestLedger runs the ledger through {fold, store} × {fresh, dropped
// without Close then resumed} × {record append, line append}. Every row
// must hold the commit invariants after every Commit, finalize to the
// merge of its own spool, and produce the one dataset; fresh rows must
// also leave byte-identical shard files whichever way pages were
// appended.
func TestLedger(t *testing.T) {
	var want []byte
	shards := map[string][]byte{}
	for _, store := range []bool{false, true} {
		for _, dropped := range []bool{false, true} {
			for _, lines := range []bool{false, true} {
				name := fmt.Sprintf("store=%v/dropped=%v/lines=%v", store, dropped, lines)
				t.Run(name, func(t *testing.T) {
					r := &ledgerRun{t: t, dir: t.TempDir(), store: store, lines: lines}
					r.open(false)
					if dropped {
						// Five sites (the last one appended but never
						// committed), a page of a sixth, then the process
						// dies: no Close, so the spool's buffered group and
						// the store's unsealed records are simply gone.
						r.crawl(0, 5)
						r.append(5, 0)
						r.open(true)
						done := 0
						for _, j := range r.jobs {
							if j.State == JobDone {
								done++
							}
						}
						if done != 4 {
							t.Fatalf("resumed %d done jobs, want the 4 the last commit covered", done)
						}
						r.crawl(4, ledgerSites)
					} else {
						r.crawl(0, ledgerSites)
					}
					got := r.finish()
					if want == nil {
						want = got
					} else if !bytes.Equal(got, want) {
						t.Error("dataset differs from the other rows'")
					}
					if store {
						ro, err := colstore.OpenRead(filepath.Join(r.dir, "store"))
						if err != nil {
							t.Fatal(err)
						}
						roDS, _ := ro.Dataset()
						if !bytes.Equal(datasetBytes(t, roDS), want) {
							t.Error("sealed store read cold differs from the dataset")
						}
					}
					if dropped {
						return
					}
					for i, path := range r.l.spool.Paths() {
						data, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						key := fmt.Sprintf("%v/%d", store, i)
						if prev, ok := shards[key]; ok && !bytes.Equal(prev, data) {
							t.Errorf("shard %d differs between record and line appends", i)
						}
						shards[key] = data
					}
				})
			}
		}
	}
}

// TestLedgerCommitNeverPublishesWithoutSpoolGuard: when the shard
// extents cannot be read, Commit must fail and leave the previous
// checkpoint in place. Publishing without shardBytes would let a later
// resume wave any spool through.
func TestLedgerCommitNeverPublishesWithoutSpoolGuard(t *testing.T) {
	r := &ledgerRun{t: t, dir: t.TempDir()}
	r.open(false)
	defer r.l.Close()
	r.crawl(0, 2)
	before, err := os.ReadFile(r.l.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	// Unlink one shard: its open handle still takes the flush, but the
	// path no longer stats.
	if err := os.Remove(r.l.spool.Paths()[1]); err != nil {
		t.Fatal(err)
	}
	r.append(2, 0)
	r.jobs = append(r.jobs, JobRecord{Domain: ledgerSite(2), State: JobDone})
	err = r.l.Commit(func() ([]JobRecord, map[string]string) { return r.jobs, nil })
	if err == nil || !strings.Contains(err.Error(), "stat shard") {
		t.Fatalf("Commit over an unstattable shard: err = %v, want the stat failure", err)
	}
	after, err := os.ReadFile(r.l.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed Commit replaced the previous checkpoint")
	}
	if entries, _ := os.ReadDir(r.dir); len(entries) != 2 {
		t.Errorf("failed Commit left droppings next to the checkpoint: %v", entries)
	}
}

// TestLedgerAppendLineRejectsNonRecords: bytes that are not one page
// record on one line are refused before they reach the spool.
func TestLedgerAppendLineRejectsNonRecords(t *testing.T) {
	r := &ledgerRun{t: t, dir: t.TempDir(), lines: true}
	r.open(false)
	r.append(0, 0)
	for _, line := range []string{
		`{torn`,
		`"{torn"`,
		`[1,2]`,
		`{}`,
		`{"site":"b.com","rank":1,"pageUrl":"http://b.com/"}`, // another site's page
		"{\"site\":\"a.com\",\n\"rank\":1}",
	} {
		if err := r.l.AppendLine("a.com", []byte(line)); err == nil {
			t.Errorf("AppendLine accepted %q", line)
		}
	}
	if err := r.l.Close(); err != nil {
		t.Fatal(err)
	}
	ds, stats, err := analysis.MergeShards(ledgerMeta, r.l.spool.Paths())
	if err != nil {
		t.Fatalf("rejected lines corrupted the spool: %v", err)
	}
	if stats.Pages != 1 || len(ds.Sites) != 1 {
		t.Errorf("spool holds %d pages over %d sites, want the one accepted record", stats.Pages, len(ds.Sites))
	}
}

// TestLedgerResumeFailsLoudly: a resumed ledger refuses a checkpoint
// from another crawl and a spool smaller than the checkpoint vouches
// for, and treats a missing checkpoint as a fresh start.
func TestLedgerResumeFailsLoudly(t *testing.T) {
	r := &ledgerRun{t: t, dir: t.TempDir(), store: true}
	r.open(false)
	r.crawl(0, 4)
	if err := r.l.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := r.l.cfg

	// Rerunning a store crawl without Resume is refused by the store —
	// and must be refused before the fresh spool open truncates the
	// shards the checkpoint vouches for, or the retry with Resume that
	// the error recommends would find them gone.
	before := readShards(t, r.l.spool.Paths())
	if _, err := OpenLedger(cfg); err == nil || !strings.Contains(err.Error(), "pass Resume") {
		t.Errorf("fresh open over an existing store: err = %v, want the store's refusal", err)
	}
	if !bytes.Equal(before, readShards(t, r.l.spool.Paths())) {
		t.Fatal("a refused fresh open changed the spool")
	}
	cfg.Resume = true
	l, err := OpenLedger(cfg)
	if err != nil {
		t.Fatalf("resume after the refused fresh open: %v", err)
	}
	if got := l.Resumed().Done; len(got) != 4 {
		t.Errorf("resume after the refused fresh open restored %d done jobs, want 4", len(got))
	}
	l.Close()
	cfg.Resume = false

	other := cfg
	other.Resume = true
	other.Crawl.Seed++
	var ce *CheckpointError
	if _, err := OpenLedger(other); !errors.As(err, &ce) || !strings.Contains(err.Error(), "seed") {
		t.Errorf("resume under another seed: err = %v, want a CheckpointError naming the seed", err)
	}

	if err := os.Truncate(r.l.spool.Paths()[0], 0); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	if _, err := OpenLedger(cfg); !errors.As(err, &ce) || !strings.Contains(err.Error(), "does not match checkpoint") {
		t.Errorf("resume over a truncated shard: err = %v, want the spool-guard CheckpointError", err)
	}

	if err := os.Remove(cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	l, err = OpenLedger(cfg)
	if err != nil {
		t.Fatalf("resume without a checkpoint file: %v", err)
	}
	defer l.Close()
	if l.Resumed() != nil {
		t.Error("a missing checkpoint resumed something")
	}
}

// readShards returns the concatenated bytes of the shard files.
func readShards(t *testing.T, paths []string) []byte {
	t.Helper()
	var all []byte
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	return all
}

// TestLedgerFinalizeEndsAppends pins that a page arriving after
// Finalize — a stale fabric attempt still streaming — is refused rather
// than folded into the dataset Finalize already handed out (the fold
// and the store share their per-domain aggregates with it).
func TestLedgerFinalizeEndsAppends(t *testing.T) {
	for _, store := range []bool{false, true} {
		r := &ledgerRun{t: t, dir: t.TempDir(), store: store}
		r.open(false)
		r.crawl(0, 2)
		ds, _, err := r.l.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		want := datasetBytes(t, ds)
		shards := readShards(t, r.l.spool.Paths())
		if err := r.l.Append(ledgerRecord(5, 0)); !errors.Is(err, ErrFinalized) {
			t.Errorf("store=%v: Append after Finalize: err = %v, want ErrFinalized", store, err)
		}
		if !bytes.Equal(want, datasetBytes(t, ds)) {
			t.Errorf("store=%v: a late append changed the finalized dataset", store)
		}
		if err := r.l.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(shards, readShards(t, r.l.spool.Paths())) {
			t.Errorf("store=%v: a late append reached the spool", store)
		}
	}
}
