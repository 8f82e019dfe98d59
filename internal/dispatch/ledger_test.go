package dispatch

import (
	"bytes"
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
	"repro/internal/crawler"
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
		HTTP: []analysis.PageTraffic{
			{Domain: "cdn.com", Requests: 3 + p, SentItems: []analysis.Count{{Key: "user-agent", N: 3}}},
		},
		AAObs:    []analysis.Count{{Key: "tracker.com", N: 1 + p}},
		NonAAObs: []analysis.Count{{Key: "cdn.com", N: 3}},
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
// site's pages, settle the site, commit every other site.
type ledgerRun struct {
	t           *testing.T
	dir         string
	lines       bool
	l           *Ledger
	q           *Queue // the queue the open restored
	resumedDone int
}

// ledgerConfig is the config of the ledger test crawl rooted at dir.
func ledgerConfig(dir string, resume bool) colstore.Config {
	return colstore.Config{
		Meta:         ledgerMeta,
		Seed:         7,
		PagesPerSite: ledgerPages,
		TotalSites:   ledgerSites,
		Dir:          filepath.Join(dir, "store"),
		Resume:       resume,
	}
}

// ledgerQueue is a queue over the ledger test crawl's sites.
func ledgerQueue() *Queue {
	sites := make([]crawler.Site, ledgerSites)
	for i := range sites {
		sites[i] = crawler.Site{Domain: ledgerSite(i), Rank: i + 1}
	}
	return NewQueue(sites, QueueConfig{Seed: 7})
}

// storeDir is the ledger test crawl's store directory.
func (r *ledgerRun) storeDir() string { return filepath.Join(r.dir, "store") }

func (r *ledgerRun) open(resume bool) {
	r.t.Helper()
	l, err := OpenLedger(ledgerConfig(r.dir, resume))
	if err != nil {
		r.t.Fatal(err)
	}
	r.l, r.q = l, ledgerQueue()
	r.resumedDone = l.Restore(r.q)
}

// settle reports outcome rows to the ledger's commit rule, as a grant's
// settle does.
func (r *ledgerRun) settle(rows ...colstore.Outcome) {
	r.t.Helper()
	if err := r.l.Settled(rows); err != nil {
		r.t.Fatal(err)
	}
}

func rec(site, page string) *analysis.PageRecord {
	return &analysis.PageRecord{Site: site, Rank: 1, PageURL: page}
}

// append hands the ledger page p of site i: the record as a local
// worker loop emits it or, with lines set, as a fabric coordinator takes
// it — its page block inside a page frame, off the wire and decoded.
func (r *ledgerRun) append(i, p int) {
	r.t.Helper()
	rec := ledgerRecord(i, p)
	if r.lines {
		frame, err := wire.Encode(&wire.Page{Batch: "g1", Site: rec.Site, Line: colstore.AppendPageBlock(nil, rec)})
		if err != nil {
			r.t.Fatal(err)
		}
		dec, err := wire.Decode(frame)
		if err != nil {
			r.t.Fatal(err)
		}
		if rec, err = colstore.DecodePageBlock(dec.Msg.(*wire.Page).Line); err != nil {
			r.t.Fatal(err)
		}
	}
	if err := r.l.Append(rec.Site, rec); err != nil {
		r.t.Fatal(err)
	}
}

// crawl appends sites [from, to) in full and settles each done,
// committing after every second one and checking the commit invariant
// each time.
func (r *ledgerRun) crawl(from, to int) {
	r.t.Helper()
	for i := from; i < to; i++ {
		for p := 0; p < ledgerPages; p++ {
			r.append(i, p)
		}
		r.settle(colstore.Outcome{Domain: ledgerSite(i), Attempt: 1, State: colstore.OutcomeDone})
		if (i-from)%2 == 1 {
			r.commit()
		}
	}
}

// commit commits and asserts invariant (a): every page of every site a
// sealed row marks done is in that row's segment or an earlier one.
func (r *ledgerRun) commit() {
	r.t.Helper()
	if err := r.l.Commit(); err != nil {
		r.t.Fatal(err)
	}
	checkRowsFollowPages(r.t, r.storeDir(), ledgerPages)
}

// checkRowsFollowPages reads the sealed segments of the store at
// storeDir in seq order and requires every site a row marks done to
// have its pages (page 0 to pages-1 of the ledger test records) in the
// row's segment or an earlier one.
func checkRowsFollowPages(t *testing.T, storeDir string, pages int) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(storeDir, "seg-*.col"))
	if err != nil {
		t.Fatal(err)
	}
	sealed := map[string]bool{}
	for _, name := range names {
		recs, rows, err := colstore.ReadSegment(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			sealed[rec.PageURL] = true
		}
		for _, row := range rows {
			for p := 0; p < pages && row.State == colstore.OutcomeDone; p++ {
				if page := fmt.Sprintf("http://%s/p%d", row.Domain, p); !sealed[page] {
					t.Errorf("%s marks %s done but %s is in no segment up to it", filepath.Base(name), row.Domain, page)
				}
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
	want, mstats := mergeSegments(r.t, ledgerMeta, r.storeDir())
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
	want, mstats := mergeSegments(r.t, ledgerMeta, r.storeDir())
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
// resumed} × {records emitted in-process, records shipped as page blocks
// in page frames}. Every row must hold the commit invariants after every
// Commit, finish to the merge of its own segments, and produce the one
// dataset; fresh rows must also leave byte-identical stores whichever
// way the records arrived and whether or not Finalize ran.
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
						if r.resumedDone != 4 {
							t.Fatalf("resumed %d done sites, want the 4 the last commit covered", r.resumedDone)
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

// TestLedgerCommitNeverPublishesWithoutSpoolGuard: a site is committed
// only by the seal that publishes its row after its pages. When the seal
// fails, Commit must fail and publish nothing — the store's files stay
// as they were — and the next commit publishes the pages and the row
// together, in order.
func TestLedgerCommitNeverPublishesWithoutSpoolGuard(t *testing.T) {
	r := &ledgerRun{t: t, dir: t.TempDir()}
	r.open(false)
	defer r.l.Close()
	r.crawl(0, 2)
	// The store directory disappears under the seal.
	storeDir := r.storeDir()
	before := ledgerState(t, storeDir)
	if err := os.Rename(storeDir, storeDir+".moved"); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < ledgerPages; p++ {
		r.append(2, p)
	}
	r.settle(colstore.Outcome{Domain: ledgerSite(2), Attempt: 1, State: colstore.OutcomeDone})
	if err := r.l.Commit(); err == nil {
		t.Fatal("Commit over a store it cannot seal into succeeded")
	}
	if err := os.Rename(storeDir+".moved", storeDir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, ledgerState(t, storeDir)) {
		t.Error("a failed Commit changed the store's files")
	}
	// Once the store is back, the next commit seals what the failed one
	// could not.
	r.crawl(3, ledgerSites)
	r.finish()
}

// TestLedgerAppendLineRejectsNonRecords: bytes that are not one page
// block of the site, and records the fold cannot take, are refused
// before they reach the store — on the fabric coordinator's path, the
// block decode and then Append.
func TestLedgerAppendLineRejectsNonRecords(t *testing.T) {
	r := &ledgerRun{t: t, dir: t.TempDir(), lines: true}
	r.open(false)
	r.append(0, 0)
	good := colstore.AppendPageBlock(nil, rec("a.com", "http://a.com/"))
	disordered := outOfOrderRecords(rec("a.com", "http://a.com/"))
	for name, block := range map[string][]byte{
		"HTTP entries out of order": colstore.AppendPageBlock(nil, disordered["HTTP entries out of order"]),
		"a duplicate count key":     colstore.AppendPageBlock(nil, disordered["a duplicate A&A key"]),
		"a JSON line":               []byte(`{"site":"a.com","rank":1,"pageUrl":"http://a.com/"}`),
		"torn":                      good[:len(good)-1],
		"a trailing byte":           append(bytes.Clone(good), 0),
		"another site's":            colstore.AppendPageBlock(nil, rec("b.com", "http://b.com/")),
		"no site":                   colstore.AppendPageBlock(nil, rec("", "http://a.com/")),
		"empty":                     nil,
		"flipped checksum":          append(bytes.Clone(good[:len(good)-12]), append([]byte{good[len(good)-12] ^ 1}, good[len(good)-11:]...)...),
	} {
		rec, err := colstore.DecodePageBlock(block)
		if err == nil {
			err = r.l.Append("a.com", rec)
		}
		if err == nil {
			t.Errorf("%s: block %x accepted", name, block)
		}
	}
	// A hand-built record whose lists are out of order never reaches
	// the store: Append refuses it before the fold or an encoder sees it.
	for name, rec := range disordered {
		if err := r.l.Append("a.com", rec); err == nil || !strings.Contains(err.Error(), "follows") {
			t.Errorf("Append of a record with %s: %v, want it refused for its order", name, err)
		}
	}
	if err := r.l.Close(); err != nil {
		t.Fatal(err)
	}
	ds, stats := mergeSegments(t, ledgerMeta, r.storeDir())
	if stats.Pages != 1 || len(ds.Sites) != 1 {
		t.Errorf("store holds %d pages over %d sites, want the one accepted record", stats.Pages, len(ds.Sites))
	}
}

// outOfOrderRecords are copies of base with one list out of the
// ascending key order a record keeps, each named for what it breaks.
func outOfOrderRecords(base *analysis.PageRecord) map[string]*analysis.PageRecord {
	with := func(edit func(*analysis.PageRecord)) *analysis.PageRecord {
		r := *base
		edit(&r)
		return &r
	}
	return map[string]*analysis.PageRecord{
		"HTTP entries out of order": with(func(r *analysis.PageRecord) {
			r.HTTP = []analysis.PageTraffic{{Domain: "t.com", Requests: 1}, {Domain: "a.com", Requests: 1}}
		}),
		"a duplicate HTTP entry": with(func(r *analysis.PageRecord) {
			r.HTTP = []analysis.PageTraffic{{Domain: "t.com", Requests: 1}, {Domain: "t.com", Requests: 2}}
		}),
		"sent items out of order": with(func(r *analysis.PageRecord) {
			r.HTTP = []analysis.PageTraffic{{Domain: "t.com", Requests: 1,
				SentItems: []analysis.Count{{Key: "user-agent", N: 1}, {Key: "cookies", N: 1}}}}
		}),
		"a duplicate A&A key": with(func(r *analysis.PageRecord) {
			r.AAObs = []analysis.Count{{Key: "t.com", N: 1}, {Key: "t.com", N: 1}}
		}),
		"CDN keys out of order": with(func(r *analysis.PageRecord) {
			r.CDNObs = []analysis.Count{{Key: "b.net", N: 1}, {Key: "a.net", N: 1}}
		}),
	}
}

// TestLedgerResumeFailsLoudly kills a crawl once 4 of its 9 sites are
// committed, damages what it left one way per row, and opens it again.
// A row that names an error must be refused at open — before a single
// Append — with that error, and with the store byte for byte as the row
// left it. A row that names none must open, and its crawl must still
// finish to the merge of its own segments.
func TestLedgerResumeFailsLoudly(t *testing.T) {
	for _, tc := range []struct {
		name string
		// damage changes the killed crawl's state or the config that
		// reopens it (Resume is set) and returns the error the open must
		// fail with, "" when it must open.
		damage func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string
		// hint is the refusal's *CheckpointError hint; "" for a refusal
		// that is not about a resume.
		hint string
		// then runs after the open (or the refusal) against the ledger r
		// reopens.
		then func(t *testing.T, r *ledgerRun)
	}{{
		name: "another seed",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			cfg.Seed++
			return "seed"
		},
		hint: hintWrongCrawl,
	}, {
		// A crawl killed before its first commit left only the store's
		// manifest, which pins its identity all the same: a store of
		// seed 7 is not folded into a crawl of seed 8.
		name: "another seed, no checkpoint",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			if err := os.RemoveAll(cfg.Dir); err != nil {
				t.Fatal(err)
			}
			fresh := *cfg
			fresh.Resume = false
			l, err := OpenLedger(fresh)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed++
			_ = l // killed: no Close
			return "seed 7"
		},
		hint: hintWrongCrawl,
	}, {
		// A segment below the highest one is gone: a gap, which only
		// damage leaves, and its rows may have marked sites done.
		name: "vouched segment deleted",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			if err := os.Remove(filepath.Join(cfg.Dir, "seg-000000.col")); err != nil {
				t.Fatal(err)
			}
			return "sealed segment seg-000000.col is damaged: the file is missing, and seg-000001.col follows it"
		},
		hint: hintStartFresh,
	}, {
		// A copy of the last segment lands three seqs past it: the
		// sequence now claims more segments than it holds.
		name: "checkpoint vouches for more segments",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			data, err := os.ReadFile(filepath.Join(cfg.Dir, "seg-000001.col"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cfg.Dir, "seg-000004.col"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			return "sealed segment seg-000002.col is damaged: the file is missing, and seg-000004.col follows it"
		},
		hint: hintStartFresh,
	}, {
		// A seal no commit asked for — the auto-seal of a full buffer —
		// is as durable as a commit's: the resume replays the third
		// segment, and with it site 4's row; the re-crawled pages fold
		// to nothing.
		name: "checkpoint short of shards",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			if err := r.l.Store().Seal(); err != nil {
				t.Fatal(err)
			}
			return ""
		},
		then: func(t *testing.T, r *ledgerRun) {
			if r.resumedDone != 5 {
				t.Errorf("resumed %d done sites, want the 5 the sealed rows mark done", r.resumedDone)
			}
			if _, stats := r.l.Store().Dataset(); stats.Pages != 5*ledgerPages+1 {
				t.Errorf("the open replayed %d pages, want every sealed one, %d", stats.Pages, 5*ledgerPages+1)
			}
			r.crawl(4, ledgerSites)
			r.finish()
		},
	}, {
		// The rows below damage a sealed segment file — a shard of the
		// crawl's durable record, whose rows may mark sites done. Each
		// fails the segment's validation, and the resume is refused
		// rather than replay a partial store.
		name: "shard emptied",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			return damageSegment(t, cfg, "seg-000001.col", func(data []byte) []byte { return nil })
		},
		hint: hintStartFresh,
	}, {
		// The segment loses its final 7 bytes, as a torn write would
		// leave it.
		name: "shard cut mid-line inside its extent",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			return damageSegment(t, cfg, "seg-000001.col", func(data []byte) []byte { return data[:len(data)-7] })
		},
		hint: hintStartFresh,
	}, {
		// As above, but refilled to its full length with bytes that are
		// not what was sealed: the file is long enough, and only its
		// checksum finds the tear.
		name: "torn line inside the extent",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			return damageSegment(t, cfg, "seg-000001.col", func(data []byte) []byte {
				copy(data[len(data)-7:], "garbage")
				return data
			})
		},
		hint: hintStartFresh,
	}, {
		// A flipped byte mid-segment: a complete sealed record no longer
		// decodes.
		name: "corrupt line inside the extent",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			return damageSegment(t, cfg, "seg-000000.col", func(data []byte) []byte {
				data[len(data)/2] ^= 0xff
				return data
			})
		},
		hint: hintStartFresh,
	}, {
		// A segment copied into the next one's place names its own seq.
		name: "segment under another name",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			data, err := os.ReadFile(filepath.Join(cfg.Dir, "seg-000001.col"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cfg.Dir, "seg-000002.col"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			return "sealed segment seg-000002.col is damaged: colstore: segment header names seq 1"
		},
		hint: hintStartFresh,
	}, {
		// Rerunning a crawl without Resume is refused by the store: the
		// retry with Resume that the error recommends must find the
		// committed sites there.
		name: "fresh open over the store",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			cfg.Resume = false
			return "pass Resume"
		},
		then: func(t *testing.T, r *ledgerRun) {
			r.open(true)
			defer r.l.Close()
			if r.resumedDone != 4 {
				t.Errorf("resume after the refused fresh open restored %d done sites, want 4", r.resumedDone)
			}
		},
	}, {
		// A crash mid-seal leaves a torn temp file past the extent, never
		// renamed into a segment: the open removes it, and the crawl
		// finishes as if it had never been written.
		name: "torn line past the extent",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			tmp := filepath.Join(cfg.Dir, "seg-000002.col.tmp-1")
			if err := os.WriteFile(tmp, []byte("WSCOLSG1 torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			return ""
		},
		then: func(t *testing.T, r *ledgerRun) {
			if _, err := os.Stat(filepath.Join(r.storeDir(), "seg-000002.col.tmp-1")); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("torn seal not removed: %v", err)
			}
			r.crawl(4, ledgerSites)
			r.finish()
		},
	}, {
		// Segments that hold pages and no outcome row — sealed by a
		// crawl that settled nothing — skip nothing, and are replayed:
		// the re-crawled pages fold to nothing.
		name: "no checkpoint file",
		damage: func(t *testing.T, r *ledgerRun, cfg *colstore.Config) string {
			if err := os.RemoveAll(cfg.Dir); err != nil {
				t.Fatal(err)
			}
			fresh := *cfg
			fresh.Resume = false
			l, err := OpenLedger(fresh)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				for p := 0; p < ledgerPages; p++ {
					if err := l.Append(ledgerSite(i), ledgerRecord(i, p)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			return ""
		},
		then: func(t *testing.T, r *ledgerRun) {
			if r.resumedDone != 0 {
				t.Errorf("a store without rows resumed %d done sites", r.resumedDone)
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
			// exactly the two segments those commits sealed.
			r := &ledgerRun{t: t, dir: t.TempDir()}
			r.open(false)
			r.crawl(0, 5)
			r.append(5, 0)
			cfg := ledgerConfig(r.dir, true)
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
				t.Error("a refused open changed the store")
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
func damageSegment(t *testing.T, cfg *colstore.Config, name string, damage func([]byte) []byte) string {
	t.Helper()
	path := filepath.Join(cfg.Dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return "sealed segment " + name + " is damaged"
}

// ledgerState is every byte a ledger's open may not change when it
// refuses: the names and contents of every file under dir.
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
	if err := r.l.Append(ledgerSite(5), ledgerRecord(5, 0)); !errors.Is(err, ErrFinalized) {
		t.Errorf("Append after Finalize: err = %v, want ErrFinalized", err)
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
// one segment, filed as seg-000000.col or, with gap odd, as
// seg-000001.col with nothing below it. The open must never panic. It
// must refuse — with every file byte for byte as it was — a gap, and a
// segment that does not decode (colstore.ReadSegment fails on it); the
// only other refusal is a segment that decodes but names another seq
// than its file. Where it opens, the ledger's dataset must be the fold
// of the segment's records, and the queue it restores must match the
// segment's outcome rows: a site's first done or failed row settles it
// for good, and its attempts are the highest its rows settled.
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
	rows := []colstore.Outcome{
		{Domain: ledgerSite(0), Attempt: 2, State: colstore.OutcomeDone},
		{Domain: ledgerSite(1), Attempt: 1, State: colstore.OutcomeRetry, Err: "reset"},
	}
	if err := st.AppendOutcomes(rows...); err != nil {
		f.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		f.Fatal(err)
	}
	if _, err := st.Ingest(ledgerRecord(1, 0)); err != nil {
		f.Fatal(err)
	}
	if err := st.AppendOutcomes(colstore.Outcome{Domain: ledgerSite(1), Attempt: 2, State: colstore.OutcomeFailed, Err: "gone"}); err != nil {
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
		f.Add(seg, uint8(0))
		f.Add(seg, uint8(1))
		f.Add(seg[:len(seg)-3], uint8(0))
	}
	f.Add([]byte("WSCOLSG1"), uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, seg []byte, gap uint8) {
		dir := t.TempDir()
		cfg := colstore.Config{Meta: ledgerMeta, Seed: 1, PagesPerSite: ledgerPages, TotalSites: 2, Dir: filepath.Join(dir, "store")}
		// A fresh open writes the store's manifest; then the fuzzed
		// segment is put beside it.
		l, err := OpenLedger(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(cfg.Dir, fmt.Sprintf("seg-%06d.col", gap%2))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, rows, rerr := colstore.ReadSegment(path)
		refuse := gap%2 == 1 || rerr != nil

		before := ledgerState(t, dir)
		cfg.Resume = true
		l, err = OpenLedger(cfg)
		if err != nil {
			if !bytes.Equal(before, ledgerState(t, dir)) {
				t.Fatal("a refused open changed a file")
			}
			if !refuse && !strings.Contains(err.Error(), "segment header names seq") {
				t.Fatalf("refused a decodable segment: %v", err)
			}
			return
		}
		defer l.Close()
		if refuse {
			t.Fatalf("opened over a gap (%v) or a segment that reads as %v", gap%2 == 1, rerr)
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

		q := NewQueue([]crawler.Site{{Domain: ledgerSite(0), Rank: 1}, {Domain: ledgerSite(1), Rank: 2}}, QueueConfig{Seed: 1})
		done := l.Restore(q)
		oracle := map[string]jobRec{
			ledgerSite(0): {Domain: ledgerSite(0), State: "pending"},
			ledgerSite(1): {Domain: ledgerSite(1), State: "pending"},
		}
		wantDone := 0
		for _, row := range rows {
			j, ok := oracle[row.Domain]
			if !ok || j.State != "pending" {
				continue // another crawl's site, or one settled for good
			}
			j.Attempts = max(j.Attempts, row.Attempt)
			j.LastErr = row.Err
			switch row.State {
			case colstore.OutcomeDone:
				j.State = "done"
				wantDone++
			case colstore.OutcomeFailed:
				j.State = "failed"
			}
			oracle[row.Domain] = j
		}
		for _, got := range jobsOf(q) {
			if w := oracle[got.Domain]; got != w {
				t.Fatalf("restored %+v from rows %+v, want %+v", got, rows, w)
			}
		}
		if done != wantDone {
			t.Fatalf("Restore reported %d done sites, the rows mark %d", done, wantDone)
		}
	})
}

// FuzzAppendLine hands the coordinator's page path — DecodePageBlock,
// then Append, where a page block first meets another process's bytes —
// arbitrary bytes for an arbitrary site, on a ledger that already holds
// one page. It must never panic, and it must do one of two things:
// refuse the bytes, with the store's counts and fold as they were; or
// ingest the record the block holds, folding it and sealing it so that
// it reads back from its segment as that record. It refuses exactly the
// bytes that are not one page block and the blocks of a record that
// names another site (or none).
func FuzzAppendLine(f *testing.F) {
	for _, rec := range []*analysis.PageRecord{ledgerRecord(1, 0), ledgerRecord(1, 1)} {
		f.Add(colstore.AppendPageBlock(nil, rec), rec.Site)
	}
	aa := rec("a.com", "a/1")
	aa.AAObs = []analysis.Count{{Key: "t.com", N: 1}}
	block := colstore.AppendPageBlock(nil, aa)
	f.Add(block, "a.com")
	f.Add(block, "b.com")
	f.Add(colstore.AppendPageBlock(nil, rec("", "a/1")), "")
	f.Add(block[:len(block)-1], "a.com")
	f.Add(append(bytes.Clone(block), '\n'), "a.com")
	f.Add([]byte(`{"site":"a.com","rank":1,"pageUrl":"a/1","aaObs":{"t.com":1}}`), "a.com")
	f.Add([]byte(`{torn`), "a.com")
	f.Fuzz(func(t *testing.T, data []byte, site string) {
		dir := t.TempDir()
		l, err := OpenLedger(colstore.Config{Meta: ledgerMeta, Seed: 1, PagesPerSite: ledgerPages, TotalSites: 2, Dir: filepath.Join(dir, "store")})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		first := ledgerRecord(0, 0)
		if err := l.Append(first.Site, first); err != nil {
			t.Fatal(err)
		}
		before := l.Store().Stats()

		rec, err := colstore.DecodePageBlock(data)
		accept := err == nil && rec.Site != "" && rec.Site == site
		want := analysis.NewFolder(ledgerMeta)
		want.Fold(first)
		if err == nil {
			err = l.Append(site, rec)
		}
		after := l.Store().Stats()
		switch {
		case err != nil && accept:
			t.Fatalf("Append(%q, block %x) refused a block of the site: %v", site, data, err)
		case err != nil && after != before:
			t.Fatalf("Append(%q, block %x) refused the block but changed the store: %+v, then %+v", site, data, before, after)
		case err == nil && !accept:
			t.Fatalf("Append(%q, block %x) took a block it must refuse", site, data)
		case err == nil:
			want.Fold(rec)
		}
		got, _ := l.Finalize()
		wantDS, _ := want.Finalize()
		if !bytes.Equal(datasetBytes(t, got), datasetBytes(t, wantDS)) {
			t.Fatalf("Append(%q, block %x) (err %v): the fold differs from the oracle's", site, data, err)
		}
		if !accept || after.Dups > before.Dups {
			return
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		sealed, _, err := colstore.ReadSegment(filepath.Join(dir, "store", "seg-000000.col"))
		if err != nil {
			t.Fatal(err)
		}
		if len(sealed) != 2 || !reflect.DeepEqual(sealed[1], rec) {
			t.Fatalf("Append(%q, block %x): the sealed record reads back as %d records, want it as the second of 2", site, data, len(sealed))
		}
	})
}
