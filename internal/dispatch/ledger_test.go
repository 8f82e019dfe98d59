package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
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
// pages, HTTP and labeler deltas on all) that the store's fold and a
// merge of its segments have real aggregation to agree on.
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
	lines bool
	l     *Ledger
	jobs  []JobRecord
}

// ledgerConfig is the config of the ledger test crawl rooted at dir.
func ledgerConfig(dir string, resume bool) LedgerConfig {
	return LedgerConfig{
		Crawl:          Checkpoint{Name: "ledger-test", Seed: 7, PagesPerSite: ledgerPages, TotalSites: ledgerSites},
		Meta:           ledgerMeta,
		CheckpointPath: filepath.Join(dir, "cp.json"),
		StoreDir:       filepath.Join(dir, "store"),
		Resume:         resume,
	}
}

func (r *ledgerRun) open(resume bool) {
	r.t.Helper()
	l, err := OpenLedger(ledgerConfig(r.dir, resume))
	if err != nil {
		r.t.Fatal(err)
	}
	r.l = l
	r.jobs = nil
	if cp := l.Resumed(); cp != nil {
		r.jobs = cp.Jobs()
	}
}

func rec(site, page string) *analysis.PageRecord {
	return &analysis.PageRecord{Site: site, Rank: 1, PageURL: page}
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

// commit commits and asserts invariant (a): the checkpoint vouches for
// exactly the segments the store has sealed, and every page of every
// done job is in one of them.
func (r *ledgerRun) commit() {
	r.t.Helper()
	if err := r.l.Commit(func() []JobRecord { return r.jobs }); err != nil {
		r.t.Fatal(err)
	}
	cp, err := LoadCheckpoint(r.l.cfg.CheckpointPath)
	if err != nil {
		r.t.Fatal(err)
	}
	if cp.Segments != r.l.Store().Sealed() {
		r.t.Errorf("checkpoint vouches for %d segments, the store has sealed %d", cp.Segments, r.l.Store().Sealed())
	}
	sealed := map[string]bool{}
	for seq := 0; seq < cp.Segments; seq++ {
		recs, err := colstore.ReadSegment(filepath.Join(r.l.cfg.StoreDir, fmt.Sprintf("seg-%06d.col", seq)))
		if err != nil {
			r.t.Fatal(err)
		}
		for _, rec := range recs {
			sealed[rec.PageURL] = true
		}
	}
	for _, dom := range cp.Done {
		for p := 0; p < ledgerPages; p++ {
			if page := fmt.Sprintf("http://%s/p%d", dom, p); !sealed[page] {
				r.t.Errorf("checkpoint marks %s done but %s is not in a segment it vouches for", dom, page)
			}
		}
	}
}

// finish commits, finalizes, asserts invariant (b) — Finalize is
// byte-equal to a merge of the store's own segments and to a cold
// read-only open of the store — and closes the ledger.
func (r *ledgerRun) finish() []byte {
	r.t.Helper()
	r.commit()
	ds, stats := r.l.Finalize()
	want, mstats := mergeSegments(r.t, ledgerMeta, r.l.cfg.StoreDir)
	got := datasetBytes(r.t, ds)
	if !bytes.Equal(got, datasetBytes(r.t, want)) {
		r.t.Error("Finalize differs from the merge of the store's own segments")
	}
	if stats.Pages != mstats.Pages || stats.Pages != ledgerSites*ledgerPages {
		r.t.Errorf("Finalize saw %d pages, the merge %d, want %d", stats.Pages, mstats.Pages, ledgerSites*ledgerPages)
	}
	if err := r.l.Close(); err != nil {
		r.t.Fatal(err)
	}
	if !bytes.Equal(coldStore(r.t, r.dir), got) {
		r.t.Error("the sealed store read cold differs from the dataset")
	}
	return got
}

// finishFromStore is finish for a crawl whose dataset is read from its
// store rather than handed out by Finalize (as wsquery reads one): it
// commits and closes without Finalize, and the cold read-only open of
// the store must equal a merge of the store's own segments.
func (r *ledgerRun) finishFromStore() []byte {
	r.t.Helper()
	r.commit()
	if err := r.l.Close(); err != nil {
		r.t.Fatal(err)
	}
	got := coldStore(r.t, r.dir)
	want, mstats := mergeSegments(r.t, ledgerMeta, r.l.cfg.StoreDir)
	if !bytes.Equal(got, datasetBytes(r.t, want)) {
		r.t.Error("the store read cold differs from the merge of its own segments")
	}
	if mstats.Pages != ledgerSites*ledgerPages {
		r.t.Errorf("the store's segments hold %d pages, want %d", mstats.Pages, ledgerSites*ledgerPages)
	}
	return got
}

// TestLedger runs the ledger through {dataset from Finalize, dataset
// read back from the store alone} × {fresh, dropped without Close then
// resumed} × {lines emitted in-process, lines shipped in page frames}.
// Every row must hold the commit invariants after every Commit, finish
// to the merge of its own segments, and produce the one dataset; fresh
// rows must also leave byte-identical stores whichever way the lines
// arrived and whether or not Finalize ran.
func TestLedger(t *testing.T) {
	var want []byte
	var store map[string][]byte
	for _, fromStore := range []bool{false, true} {
		for _, dropped := range []bool{false, true} {
			for _, lines := range []bool{false, true} {
				name := fmt.Sprintf("store=%v/dropped=%v/lines=%v", fromStore, dropped, lines)
				t.Run(name, func(t *testing.T) {
					r := &ledgerRun{t: t, dir: t.TempDir(), lines: lines}
					r.open(false)
					if dropped {
						// Five sites (the last one appended but never
						// committed), a page of a sixth, then the process
						// dies: no Close, so the store's unsealed records
						// are simply gone.
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
					var got []byte
					if fromStore {
						got = r.finishFromStore()
					} else {
						got = r.finish()
					}
					if want == nil {
						want = got
					} else if !bytes.Equal(got, want) {
						t.Error("dataset differs from the other rows'")
					}
					if dropped {
						return
					}
					files := storeFiles(t, r.dir)
					if store != nil && !reflect.DeepEqual(files, store) {
						t.Error("the store differs from another fresh row's")
					}
					store = files
				})
			}
		}
	}
}

// TestLedgerCommitNeverPublishesWithoutSpoolGuard: the guard that keeps
// a checkpoint from vouching for pages outside the crawl's durable
// record is the seal. When the seal fails, Commit must fail and leave
// the previous checkpoint in place. Publishing anyway would vouch for
// pages in no durable segment.
func TestLedgerCommitNeverPublishesWithoutSpoolGuard(t *testing.T) {
	r := &ledgerRun{t: t, dir: t.TempDir()}
	r.open(false)
	defer r.l.Close()
	r.crawl(0, 2)
	before, err := os.ReadFile(r.l.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	// The store directory disappears under the seal.
	storeDir := r.l.cfg.StoreDir
	if err := os.Rename(storeDir, storeDir+".moved"); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < ledgerPages; p++ {
		r.append(2, p)
	}
	r.jobs = append(r.jobs, JobRecord{Domain: ledgerSite(2), State: JobDone})
	if err := r.l.Commit(func() []JobRecord { return r.jobs }); err == nil {
		t.Fatal("Commit over a store it cannot seal into succeeded")
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
	// Once the store is back, the next commit seals what the failed one
	// could not, and vouches for it.
	if err := os.Rename(storeDir+".moved", storeDir); err != nil {
		t.Fatal(err)
	}
	r.crawl(3, ledgerSites)
	r.finish()
}

// TestLedgerAppendLineRejectsNonRecords: bytes that are not one page
// record on one line are refused before they reach the store.
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
		`{"site":"a.com","rank":1,"pageUrl":"a/1","http":{"t.com":null}}`,
	} {
		if err := r.l.AppendLine("a.com", []byte(line)); err == nil {
			t.Errorf("AppendLine accepted %q", line)
		}
	}
	if err := r.l.Close(); err != nil {
		t.Fatal(err)
	}
	ds, stats := mergeSegments(t, ledgerMeta, r.l.cfg.StoreDir)
	if stats.Pages != 1 || len(ds.Sites) != 1 {
		t.Errorf("store holds %d pages over %d sites, want the one accepted record", stats.Pages, len(ds.Sites))
	}
}

// TestLedgerResumeFailsLoudly kills a crawl once 4 of its 9 sites are
// committed, damages what it left one way per row, and opens it again.
// A row that names an error must be refused at open — before a single
// Append — with that error, and with the store and the checkpoint byte
// for byte as the row left them. A row that names none must open, and
// its crawl must still finish to the merge of its own segments.
func TestLedgerResumeFailsLoudly(t *testing.T) {
	for _, tc := range []struct {
		name string
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
		// Without a checkpoint to compare against, the store's own
		// identity refuses it: a store of seed 7 is not folded into a
		// crawl of seed 8.
		name: "another seed, no checkpoint",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			if err := os.Remove(cfg.CheckpointPath); err != nil {
				t.Fatal(err)
			}
			cfg.Crawl.Seed++
			return "seed 7"
		},
	}, {
		name: "vouched segment deleted",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			if err := os.Remove(filepath.Join(cfg.StoreDir, "seg-000001.col")); err != nil {
				t.Fatal(err)
			}
			return "store segment seg-000001.col is missing: the checkpoint vouches for 2 sealed segments"
		},
		hint: hintStartFresh,
	}, {
		name: "checkpoint vouches for more segments",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			cp := loadCP(t, r)
			cp.Segments += 3
			if err := cp.WriteAtomic(cfg.CheckpointPath); err != nil {
				t.Fatal(err)
			}
			return "store segment seg-000002.col is missing: the checkpoint vouches for 5 sealed segments"
		},
		hint: hintStartFresh,
	}, {
		// A crash after a seal and before the checkpoint that would
		// vouch for it: the store holds a third segment, which the
		// resume replays; the re-crawled pages it holds fold to nothing.
		name: "checkpoint short of shards",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			if err := r.l.Store().Seal(); err != nil {
				t.Fatal(err)
			}
			if cp := loadCP(t, r); cp.Segments != 2 || r.l.Store().Sealed() != 3 {
				t.Fatalf("checkpoint vouches for %d segments of %d, want 2 of 3", cp.Segments, r.l.Store().Sealed())
			}
			return ""
		},
		then: func(t *testing.T, r *ledgerRun) {
			if got := len(r.l.Resumed().Done); got != 4 {
				t.Errorf("resumed %d done jobs, want the 4 the checkpoint covered", got)
			}
			if _, stats := r.l.Store().Dataset(); stats.Pages != 5*ledgerPages+1 {
				t.Errorf("the open replayed %d pages, want every sealed one, %d", stats.Pages, 5*ledgerPages+1)
			}
			r.crawl(4, ledgerSites)
			r.finish()
		},
	}, {
		// The rows below damage a sealed segment file the checkpoint
		// vouches for — a shard of the crawl's durable record, inside
		// the extent the checkpoint covers. Each fails the segment's
		// validation, and the resume is refused rather than replay a
		// partial store.
		name: "shard emptied",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			return damageSegment(t, cfg, "seg-000001.col", func(data []byte) []byte { return nil })
		},
		hint: hintStartFresh,
	}, {
		// The segment loses its final 7 bytes, as a torn write would
		// leave it.
		name: "shard cut mid-line inside its extent",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			return damageSegment(t, cfg, "seg-000001.col", func(data []byte) []byte { return data[:len(data)-7] })
		},
		hint: hintStartFresh,
	}, {
		// As above, but refilled to its full length with bytes that are
		// not what was sealed: the file is long enough, and only its
		// checksum finds the tear.
		name: "torn line inside the extent",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			return damageSegment(t, cfg, "seg-000001.col", func(data []byte) []byte {
				copy(data[len(data)-7:], "garbage")
				return data
			})
		},
		hint: hintStartFresh,
	}, {
		// A flipped byte mid-segment: a complete record the checkpoint
		// vouches for no longer decodes.
		name: "corrupt line inside the extent",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			return damageSegment(t, cfg, "seg-000000.col", func(data []byte) []byte {
				data[len(data)/2] ^= 0xff
				return data
			})
		},
		hint: hintStartFresh,
	}, {
		// A segment renamed into another's place names its own seq.
		name: "segment under another name",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			if err := os.Rename(filepath.Join(cfg.StoreDir, "seg-000001.col"), filepath.Join(cfg.StoreDir, "seg-000002.col")); err != nil {
				t.Fatal(err)
			}
			return "sealed segment seg-000002.col is damaged: colstore: segment header names seq 1"
		},
		hint: hintStartFresh,
	}, {
		// Rerunning a crawl without Resume is refused by the store: the
		// retry with Resume that the error recommends must find the
		// segments the checkpoint vouches for there.
		name: "fresh open over the store",
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
		// A crash mid-seal leaves a torn temp file past the extent, never
		// renamed into a segment: the open removes it, and the crawl
		// finishes as if it had never been written.
		name: "torn line past the extent",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			tmp := filepath.Join(cfg.StoreDir, "seg-000002.col.tmp-1")
			if err := os.WriteFile(tmp, []byte("WSCOLSG1 torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			return ""
		},
		then: func(t *testing.T, r *ledgerRun) {
			if _, err := os.Stat(filepath.Join(r.l.cfg.StoreDir, "seg-000002.col.tmp-1")); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("torn seal not removed: %v", err)
			}
			r.crawl(4, ledgerSites)
			r.finish()
		},
	}, {
		// With no checkpoint nothing is skipped, and the crawl's own
		// store is replayed: the re-crawled pages fold to nothing.
		name: "no checkpoint file",
		damage: func(t *testing.T, r *ledgerRun, cfg *LedgerConfig) string {
			if err := os.Remove(cfg.CheckpointPath); err != nil {
				t.Fatal(err)
			}
			return ""
		},
		then: func(t *testing.T, r *ledgerRun) {
			if r.l.Resumed() != nil {
				t.Error("a missing checkpoint resumed something")
			}
			if _, stats := r.l.Store().Dataset(); stats.Pages != 4*ledgerPages {
				t.Errorf("the open replayed %d pages, want the 4 sealed sites' %d", stats.Pages, 4*ledgerPages)
			}
			r.crawl(0, ledgerSites)
			r.finish()
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			// Sites 0-4 and a page of site 5, committed after sites 1 and
			// 3, and then the process dies: no Close, so the store holds
			// exactly the two segments the checkpoint vouches for.
			r := &ledgerRun{t: t, dir: t.TempDir()}
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
			before := ledgerState(t, r.dir)
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
			if !bytes.Equal(before, ledgerState(t, r.dir)) {
				t.Error("a refused open changed the store or the checkpoint")
			}
			if tc.then != nil {
				tc.then(t, r)
			}
		})
	}
}

// damageSegment rewrites the sealed segment name of cfg's store with
// what damage makes of its bytes, and returns the refusal a resume over
// it must fail with.
func damageSegment(t *testing.T, cfg *LedgerConfig, name string, damage func([]byte) []byte) string {
	t.Helper()
	path := filepath.Join(cfg.StoreDir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return "sealed segment " + name + " is damaged"
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

// ledgerState is every byte a ledger's open may not change when it
// refuses: the names and contents of every file under dir — the store's
// and the checkpoint.
func ledgerState(t *testing.T, dir string) []byte {
	t.Helper()
	var all []byte
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		all = append(append(all, path...), data...)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// TestLedgerFinalizeEndsAppends pins that a page arriving after
// Finalize — a stale fabric attempt still streaming — is refused rather
// than folded into the dataset Finalize already handed out (the fold
// shares its per-domain aggregates with it) or sealed into the store.
func TestLedgerFinalizeEndsAppends(t *testing.T) {
	r := &ledgerRun{t: t, dir: t.TempDir()}
	r.open(false)
	r.crawl(0, 2)
	ds, _ := r.l.Finalize()
	want := datasetBytes(t, ds)
	if err := r.l.AppendLine(ledgerSite(5), recordLine(t, ledgerRecord(5, 0))); !errors.Is(err, ErrFinalized) {
		t.Errorf("AppendLine after Finalize: err = %v, want ErrFinalized", err)
	}
	if !bytes.Equal(want, datasetBytes(t, ds)) {
		t.Error("a late append changed the finalized dataset")
	}
	if err := r.l.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, coldStore(t, r.dir)) {
		t.Error("a late append reached the store")
	}
}

// FuzzLedgerReplay resumes a crawl over arbitrary bytes as its store's
// first segment, under a v5 checkpoint that vouches for 0, 1 or 2
// segments. The open must never panic. It must refuse — with every file
// byte for byte as it was — when the checkpoint vouches for a segment
// that is not there, or the segment does not decode
// (colstore.ReadSegment fails on it); the only other refusal is a
// segment that decodes but names another seq than its file. Where it
// opens, the ledger's dataset must be the fold of the segment's
// records.
func FuzzLedgerReplay(f *testing.F) {
	dir := f.TempDir()
	st, err := colstore.Open(colstore.Config{Dir: dir, Meta: ledgerMeta})
	if err != nil {
		f.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if _, err := st.Ingest(ledgerRecord(0, p)); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		f.Fatal(err)
	}
	if _, err := st.Ingest(ledgerRecord(1, 0)); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	for seq := 0; seq < 2; seq++ {
		seg, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("seg-%06d.col", seq)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg, uint8(1))
		f.Add(seg, uint8(2))
		f.Add(seg[:len(seg)-3], uint8(0))
	}
	f.Add([]byte("WSCOLSG1"), uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, seg []byte, vouched uint8) {
		dir := t.TempDir()
		cfg := LedgerConfig{
			Crawl:          Checkpoint{Name: "fuzz", Seed: 1, PagesPerSite: ledgerPages, TotalSites: 2},
			Meta:           ledgerMeta,
			CheckpointPath: filepath.Join(dir, "cp.json"),
			StoreDir:       filepath.Join(dir, "store"),
		}
		// A fresh open writes the store's manifest; then the checkpoint
		// and the fuzzed segment are put beside it.
		l, err := OpenLedger(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		cp := cfg.Crawl
		cp.Version = CheckpointVersion
		cp.Segments = int(vouched % 3)
		if err := cp.WriteAtomic(cfg.CheckpointPath); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(cfg.StoreDir, "seg-000000.col")
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, rerr := colstore.ReadSegment(path)
		refuse := cp.Segments > 1 || rerr != nil

		before := ledgerState(t, dir)
		cfg.Resume = true
		l, err = OpenLedger(cfg)
		if err != nil {
			if !bytes.Equal(before, ledgerState(t, dir)) {
				t.Fatal("a refused open changed a file")
			}
			if !refuse && !strings.Contains(err.Error(), "segment header names seq") {
				t.Fatalf("refused a decodable segment the checkpoint may vouch for: %v", err)
			}
			return
		}
		defer l.Close()
		if refuse {
			t.Fatalf("opened with %d vouched segments over a segment that reads as %v", cp.Segments, rerr)
		}
		want := analysis.NewFolder(ledgerMeta)
		for _, rec := range recs {
			want.Fold(rec)
		}
		ds, _ := l.Finalize()
		wantDS, _ := want.Finalize()
		if !bytes.Equal(datasetBytes(t, ds), datasetBytes(t, wantDS)) {
			t.Fatal("the replayed fold differs from the fold of the segment's records")
		}
	})
}

// FuzzAppendLine hands AppendLine — where the spool codec first meets
// another process's bytes — an arbitrary line for an arbitrary site, on
// a ledger that already holds one page. It must never panic, and it must
// do one of two things: refuse the line, with the store's counts and
// fold as they were; or ingest the record json.Unmarshal gives for it,
// folding it and sealing it so that it reads back from its segment as
// that record. It refuses exactly the lines that are not one line, do
// not decode, name another site (or none), or hold a null HTTP entry,
// which neither the fold nor the store can take.
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
			CheckpointPath: filepath.Join(dir, "cp.json"),
			StoreDir:       filepath.Join(dir, "store"),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		first := ledgerRecord(0, 0)
		if err := l.AppendLine(first.Site, recordLine(t, first)); err != nil {
			t.Fatal(err)
		}
		before := l.Store().Stats()

		var rec analysis.PageRecord
		accept := bytes.IndexByte(line, '\n') < 0 && json.Unmarshal(line, &rec) == nil &&
			rec.Site != "" && rec.Site == site
		for _, traffic := range rec.HTTP {
			accept = accept && traffic != nil
		}
		want := analysis.NewFolder(ledgerMeta)
		want.Fold(first)

		err = l.AppendLine(site, line)
		after := l.Store().Stats()
		switch {
		case err != nil && accept:
			t.Fatalf("AppendLine(%q, %q) refused a line json.Unmarshal takes: %v", site, line, err)
		case err != nil && after != before:
			t.Fatalf("AppendLine(%q, %q) refused the line but changed the store: %+v, then %+v", site, line, before, after)
		case err == nil && !accept:
			t.Fatalf("AppendLine(%q, %q) took a line it must refuse", site, line)
		case err == nil:
			want.Fold(&rec)
		}
		got, _ := l.Finalize()
		wantDS, _ := want.Finalize()
		if !bytes.Equal(datasetBytes(t, got), datasetBytes(t, wantDS)) {
			t.Fatalf("AppendLine(%q, %q) (err %v): the fold differs from the oracle's", site, line, err)
		}
		if !accept || after.Dups > before.Dups {
			return
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		sealed, err := colstore.ReadSegment(filepath.Join(dir, "store", "seg-000000.col"))
		if err != nil {
			t.Fatal(err)
		}
		if len(sealed) != 2 || !bytes.Equal(recordLine(t, sealed[1]), recordLine(t, &rec)) {
			t.Fatalf("AppendLine(%q, %q): the sealed record reads back as %d records, want it as the second of 2", site, line, len(sealed))
		}
	})
}
