package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/oracle"
	"repro/internal/colstore"
	"repro/internal/fabric/wire"
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
		Crawl:          Checkpoint{Name: "ledger-test", Seed: 7, PagesPerSite: ledgerPages, TotalSites: ledgerSites},
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

// recordLine is rec's spool line, without the newline, as a grant
// runner emits it.
func recordLine(t *testing.T, rec *analysis.PageRecord) []byte {
	t.Helper()
	line, err := analysis.AppendSpoolRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return line[:len(line)-1]
}

// append hands the ledger page p of site i: the line as a local worker
// loop emits it or, with lines set, as a fabric worker ships it — inside
// a page frame, off the wire.
func (r *ledgerRun) append(i, p int) {
	r.t.Helper()
	rec := ledgerRecord(i, p)
	line := recordLine(r.t, rec)
	if r.lines {
		frame, err := wire.Encode(&wire.Page{Batch: "g1", Site: rec.Site, Line: line})
		if err != nil {
			r.t.Fatal(err)
		}
		dec, err := wire.Decode(frame)
		if err != nil {
			r.t.Fatal(err)
		}
		line = dec.Msg.(*wire.Page).Line
	}
	if err := r.l.AppendLine(rec.Site, line); err != nil {
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
	if err := r.l.Commit(func() []JobRecord { return r.jobs }); err != nil {
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
	want, ostats, err := oracle.MergeShards(ledgerMeta, r.l.spool.Paths())
	if err != nil {
		r.t.Fatal(err)
	}
	got := datasetBytes(r.t, ds)
	if !bytes.Equal(got, datasetBytes(r.t, want)) {
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
// without Close then resumed} × {lines emitted in-process, lines shipped
// in page frames}. Every row must hold the commit invariants after every
// Commit, finalize to the merge of its own spool, and produce the one
// dataset; fresh rows must also leave byte-identical shard files
// whichever way the lines arrived.
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
							t.Errorf("shard %d differs between in-process and framed lines", i)
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
	err = r.l.Commit(func() []JobRecord { return r.jobs })
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
	ds, stats, err := oracle.MergeShards(ledgerMeta, r.l.spool.Paths())
	if err != nil {
		t.Fatalf("rejected lines corrupted the spool: %v", err)
	}
	if stats.Pages != 1 || len(ds.Sites) != 1 {
		t.Errorf("spool holds %d pages over %d sites, want the one accepted record", stats.Pages, len(ds.Sites))
	}
}

// TestLedgerResumeFailsLoudly kills a crawl once 4 of its 9 sites are
// committed, damages what it left one way per row, and opens it again.
// A row that names an error must be refused at open — before a single
// Append — with that error, and with the spool and the checkpoint byte
// for byte as the row left them. A row that names none must open, and
// its crawl must still finish to the merge of its own spool.
func TestLedgerResumeFailsLoudly(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store bool
		// damage changes the killed crawl's state or the config that
		// reopens it (Resume is set) and returns the error the open must
		// fail with, "" when it must open.
		damage func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string
		// hint is the refusal's *CheckpointError hint; "" for a refusal
		// that is not about the checkpoint.
		hint string
		// then runs after the open (or the refusal) against the ledger r
		// reopens.
		then func(t *testing.T, r *ledgerRun)
	}{{
		name: "another seed",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			cfg.Crawl.Seed++
			return "seed"
		},
		hint: hintWrongCrawl,
	}, {
		name: "checkpoint short of shards",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			cp := loadCP(t, r)
			cp.ShardBytes = cp.ShardBytes[:1]
			if err := cp.WriteAtomic(cfg.CheckpointPath); err != nil {
				t.Fatal(err)
			}
			return "checkpoint recorded 1 spool shards"
		},
		hint: hintStartFresh,
	}, {
		name: "shard emptied",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			path, extent := vouchedShard(t, r)
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("holds 0 bytes, checkpoint recorded %d", extent)
		},
		hint: hintStartFresh,
	}, {
		// The shard's last vouched line loses its final 7 bytes: a torn
		// tail inside the extent that the open must report at the size it
		// found, not cut to the size of the line before.
		name: "shard cut mid-line inside its extent",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			path, extent := vouchedShard(t, r)
			if err := os.Truncate(path, extent-7); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("holds %d bytes, checkpoint recorded %d", extent-7, extent)
		},
		hint: hintStartFresh,
	}, {
		// As above, but refilled to its full extent with bytes that end
		// no line: the shard is long enough, and the store that makes the
		// replay scan instead of decode does not hide the torn line.
		name:  "torn line inside the extent",
		store: true,
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			path, extent := vouchedShard(t, r)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			copy(data[extent-7:], "garbage")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			torn := bytes.LastIndexByte(data[:extent-7], '\n') + 1
			return fmt.Sprintf("torn line at offset %d inside the checkpoint's extent of %d bytes", torn, extent)
		},
		hint: hintStartFresh,
	}, {
		// A complete line the checkpoint vouches for no longer decodes.
		// Without a store it would otherwise only surface after the
		// resumed crawl had committed a checkpoint vouching for it.
		name: "corrupt line inside the extent",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			path, _ := vouchedShard(t, r)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[0] = '!'
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return filepath.Base(path) + " line 1: analysis: decode spool record: invalid character '!'"
		},
		hint: hintStartFresh,
	}, {
		// Rerunning a store crawl without Resume is refused by the store,
		// and before the fresh spool open truncates the shards the
		// checkpoint vouches for: the retry with Resume that the error
		// recommends must find them there.
		name:  "fresh open over the store",
		store: true,
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			cfg.Resume = false
			return "pass Resume"
		},
		then: func(t *testing.T, r *ledgerRun) {
			r.open(true)
			defer r.l.Close()
			if got := r.l.Resumed().Done; len(got) != 4 {
				t.Errorf("resume after the refused fresh open restored %d done jobs, want 4", len(got))
			}
		},
	}, {
		// A crash mid-flush leaves a torn line past the extent: a remnant
		// the open cuts, after which the crawl appends and finishes as if
		// it had never been written.
		name: "torn line past the extent",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			path, _ := vouchedShard(t, r)
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteString(`{"site":"site00.com","rank":1,"pageUrl":"http://site0`); err != nil {
				t.Fatal(err)
			}
			return ""
		},
		then: func(t *testing.T, r *ledgerRun) {
			path, extent := vouchedShard(t, r)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != extent {
				t.Errorf("torn remnant not cut: the shard holds %d bytes, want %d", fi.Size(), extent)
			}
			r.crawl(4, ledgerSites)
			r.finish()
		},
	}, {
		name: "no checkpoint file",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			if err := os.Remove(cfg.CheckpointPath); err != nil {
				t.Fatal(err)
			}
			return ""
		},
		then: func(t *testing.T, r *ledgerRun) {
			defer r.l.Close()
			if r.l.Resumed() != nil {
				t.Error("a missing checkpoint resumed something")
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			// Sites 0-4 and a page of site 5, committed after sites 1 and
			// 3, and then the process dies: no Close, so the shards hold
			// exactly the extents the checkpoint vouches for.
			r := &ledgerRun{t: t, dir: t.TempDir(), store: tc.store}
			r.open(false)
			r.crawl(0, 5)
			r.append(5, 0)
			cfg := r.l.cfg
			cfg.Resume = true
			want := tc.damage(t, r, &cfg)
			if want == "" {
				r.open(true)
				tc.then(t, r)
				return
			}
			before := ledgerState(t, r)
			l, err := OpenLedger(cfg)
			if err == nil {
				l.Close()
				t.Fatalf("the open succeeded, want %q", want)
			}
			if !strings.Contains(err.Error(), want) {
				t.Errorf("err = %v, want %q", err, want)
			}
			var ce *CheckpointError
			if tc.hint != "" && (!errors.As(err, &ce) || ce.Hint != tc.hint) {
				t.Errorf("err = %v (%T), want a *CheckpointError with hint %q", err, err, tc.hint)
			}
			if !bytes.Equal(before, ledgerState(t, r)) {
				t.Error("a refused open changed the spool or the checkpoint")
			}
			if tc.then != nil {
				tc.then(t, r)
			}
		})
	}
}

// loadCP loads the checkpoint r's crawl last committed.
func loadCP(t *testing.T, r *ledgerRun) *Checkpoint {
	t.Helper()
	cp, err := LoadCheckpoint(r.l.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// vouchedShard returns the shard the last checkpoint vouches for the
// most bytes of, and that extent.
func vouchedShard(t *testing.T, r *ledgerRun) (string, int64) {
	t.Helper()
	cp := loadCP(t, r)
	best := 0
	for i, n := range cp.ShardBytes {
		if n > cp.ShardBytes[best] {
			best = i
		}
	}
	if cp.ShardBytes[best] < 16 {
		t.Fatalf("checkpoint vouches for no spool line: %v", cp.ShardBytes)
	}
	return r.l.spool.Paths()[best], cp.ShardBytes[best]
}

// ledgerState is every byte a ledger's open may not change when it
// refuses: the shards, then the checkpoint.
func ledgerState(t *testing.T, r *ledgerRun) []byte {
	t.Helper()
	return readShards(t, append(r.l.spool.Paths(), r.l.cfg.CheckpointPath))
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
		if err := r.l.AppendLine(ledgerSite(5), recordLine(t, ledgerRecord(5, 0))); !errors.Is(err, ErrFinalized) {
			t.Errorf("store=%v: AppendLine after Finalize: err = %v, want ErrFinalized", store, err)
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

// FuzzLedgerReplay resumes a crawl over arbitrary bytes in its first
// shard and an arbitrary extent for them; the other shards are empty.
// The open must never panic. Where it refuses, the shard must be byte
// for byte as it was; and it must refuse exactly when the shard's
// complete lines end before the extent, or one of them does not decode
// (oracle.MergeShards fails on it). Where it opens, the shard must end
// at its last complete line, and the ledger's dataset must be the merge
// of that prefix.
func FuzzLedgerReplay(f *testing.F) {
	// Short lines keep the minimizer's passes over an interesting input
	// short.
	good := []byte(`{"site":"a.com","rank":1,"pageUrl":"a/1","aaObs":{"t.com":1}}` + "\n" +
		`{"site":"a.com","rank":1,"pageUrl":"a/1"}` + "\n" +
		`{"site":"b.com","rank":2,"pageUrl":"b/","sockets":[{"url":"ws://t.com/"}]}` + "\n")
	n := int64(len(good))
	torn := append(good[:n:n], `{"site":"b.com","ra`...)
	f.Add(good, n)
	f.Add(good, n+1)
	f.Add(torn, n)
	f.Add(torn, n+3)
	f.Add([]byte("\n{corrupt\n"), int64(0))
	f.Add([]byte(`{"site":"a.com","rank":1,"pageUrl":"a/1","http":{"t.com":null}}`+"\n"), int64(0))
	f.Add([]byte{}, int64(-1))
	f.Fuzz(func(t *testing.T, shard []byte, extent int64) {
		dir := t.TempDir()
		cfg := LedgerConfig{
			Crawl:          Checkpoint{Name: "fuzz", Seed: 1, PagesPerSite: ledgerPages, TotalSites: 2},
			Meta:           ledgerMeta,
			SpoolDir:       filepath.Join(dir, "spool"),
			CheckpointPath: filepath.Join(dir, "cp.json"),
			Resume:         true,
		}
		cp := cfg.Crawl
		cp.Version = CheckpointVersion
		cp.NumShards = DefaultShards
		cp.ShardBytes = make([]int64, DefaultShards)
		cp.ShardBytes[0] = extent
		data, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cfg.CheckpointPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(cfg.SpoolDir, shardName(0))
		if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, shard, 0o644); err != nil {
			t.Fatal(err)
		}
		kept := shard[:bytes.LastIndexByte(shard, '\n')+1]
		oraclePath := filepath.Join(dir, "kept.jsonl")
		if err := os.WriteFile(oraclePath, kept, 0o644); err != nil {
			t.Fatal(err)
		}
		want, _, merr := oracle.MergeShards(ledgerMeta, []string{oraclePath})
		refuse := int64(len(kept)) < extent || merr != nil

		l, err := OpenLedger(cfg)
		disk, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			var ce *CheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v (%T), want *CheckpointError", err, err)
			}
			if !refuse {
				t.Fatalf("refused a shard whose complete lines cover the extent %d and merge: %v", extent, err)
			}
			if !bytes.Equal(disk, shard) {
				t.Fatal("a refused open changed the shard")
			}
			return
		}
		defer l.Close()
		if refuse {
			t.Fatalf("opened over extent %d with %d complete bytes (merge: %v)", extent, len(kept), merr)
		}
		if !bytes.Equal(disk, kept) {
			t.Fatalf("the shard holds %d bytes after the open, want its %d complete ones", len(disk), len(kept))
		}
		ds, _, err := l.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(datasetBytes(t, ds), datasetBytes(t, want)) {
			t.Fatal("the replayed fold differs from the merge of the kept prefix")
		}
	})
}

// FuzzAppendLine hands AppendLine — where the spool codec first meets
// another process's bytes — an arbitrary line for an arbitrary site, on
// a ledger that already holds one page. It must never panic, and it must
// do one of two things: refuse the line, with the spool's bytes and the
// fold as they were; or append it verbatim plus '\n' to the site's shard
// and fold the record json.Unmarshal gives for it. It refuses exactly the
// lines that are not one line, do not decode, name another site (or
// none), or hold a null HTTP entry, which neither the fold nor the store
// can take.
func FuzzAppendLine(f *testing.F) {
	for _, rec := range []*analysis.PageRecord{ledgerRecord(1, 0), ledgerRecord(1, 1)} {
		line, err := analysis.AppendSpoolRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line[:len(line)-1], rec.Site)
	}
	f.Add([]byte(`{"site":"a.com","rank":1,"pageUrl":"a/1","aaObs":{"t.com":1}}`), "a.com")
	f.Add([]byte(`{"site":"a.com","rank":1,"pageUrl":"a/1","aaObs":{"t.com":1}}`), "b.com")
	f.Add([]byte(`{"site":"a.com","rank":1,"pageUrl":"a/1","http":{"t.com":null}}`), "a.com")
	f.Add([]byte(`{"site": "a.com", "Rank":1, "pageUrl":"a/1"}`), "a.com")
	f.Add([]byte("{\"site\":\"a.com\",\n\"rank\":1}"), "a.com")
	f.Add([]byte(`{"site":"","rank":1,"pageUrl":"a/1"}`), "")
	f.Add([]byte(`{torn`), "a.com")
	f.Fuzz(func(t *testing.T, line []byte, site string) {
		dir := t.TempDir()
		l, err := OpenLedger(LedgerConfig{
			Crawl:          Checkpoint{Name: "fuzz", Seed: 1, PagesPerSite: ledgerPages, TotalSites: 2},
			Meta:           ledgerMeta,
			SpoolDir:       filepath.Join(dir, "spool"),
			CheckpointPath: filepath.Join(dir, "cp.json"),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		first := ledgerRecord(0, 0)
		if err := l.AppendLine(first.Site, recordLine(t, first)); err != nil {
			t.Fatal(err)
		}
		shards := func() [][]byte {
			t.Helper()
			if err := l.spool.Flush(); err != nil {
				t.Fatal(err)
			}
			var out [][]byte
			for _, path := range l.spool.Paths() {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, data)
			}
			return out
		}
		before := shards()
		appended := slices.Clone(before)
		i := l.spool.ShardFor(site)
		appended[i] = append(append(bytes.Clone(before[i]), line...), '\n')

		var rec analysis.PageRecord
		accept := bytes.IndexByte(line, '\n') < 0 && json.Unmarshal(line, &rec) == nil &&
			rec.Site != "" && rec.Site == site
		for _, traffic := range rec.HTTP {
			accept = accept && traffic != nil
		}
		want := analysis.NewFolder(ledgerMeta)
		want.Fold(first)

		err = l.AppendLine(site, line)
		after := shards()
		switch {
		case err != nil && accept:
			t.Fatalf("AppendLine(%q, %q) refused a line json.Unmarshal takes: %v", site, line, err)
		case err != nil && !slices.EqualFunc(after, before, bytes.Equal):
			t.Fatalf("AppendLine(%q, %q) refused the line but changed the spool", site, line)
		case err == nil && !accept:
			t.Fatalf("AppendLine(%q, %q) took a line it must refuse", site, line)
		case err == nil && !slices.EqualFunc(after, appended, bytes.Equal):
			t.Fatalf("AppendLine(%q, %q) did not append the line verbatim", site, line)
		case err == nil:
			want.Fold(&rec)
		}
		got, _, err := l.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		wantDS, _ := want.Finalize()
		if !bytes.Equal(datasetBytes(t, got), datasetBytes(t, wantDS)) {
			t.Fatalf("AppendLine(%q, %q) (err %v): the fold differs from the oracle's", site, line, err)
		}
	})
}
