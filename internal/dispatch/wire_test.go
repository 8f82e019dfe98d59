package dispatch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/crawler"
)

// A crawl's progress is the outcome rows its settles append to the
// store. These tests keep the names of the job-record tests they
// replace.

// settleRows runs grants over sites 0-3 of the ledger test crawl through
// a fresh ledger in dir, one way per grant, commits, and returns the
// outcome rows the commit sealed, in order.
func settleRows(t *testing.T, dir string) []colstore.Outcome {
	t.Helper()
	r := &ledgerRun{t: t, dir: dir}
	r.open(false)
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	q := NewQueue([]crawler.Site{{Domain: ledgerSite(0), Rank: 1}, {Domain: ledgerSite(1), Rank: 2}, {Domain: ledgerSite(2), Rank: 3}, {Domain: ledgerSite(3), Rank: 4}},
		QueueConfig{Seed: 1, Now: clk.now, Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Second, JitterFrac: -1}})
	ctx := context.Background()
	grant := func(n int) *Grant {
		clk.advance(time.Minute) // every retry is ready
		g, ok := q.Grant(ctx, n, r.l)
		if !ok {
			t.Fatal("no grant")
		}
		return g
	}
	r.append(0, 0)
	// Sites 0 and 1: 0 completes, 1 fails and retries.
	if n, err := grant(2).Settle(map[string]string{ledgerSite(1): "reset"}, nil); n != 2 || err != nil {
		t.Fatalf("settled %d (%v), want 2", n, err)
	}
	// Sites 1 (attempt 2) and 2: the grant fails, so 1 spends its budget.
	if n, err := grant(2).Settle(nil, errors.New("gone")); n != 2 || err != nil {
		t.Fatalf("settled %d (%v), want 2", n, err)
	}
	// Site 2 again, cancelled: released, no row. Then stale: no row.
	g := grant(1)
	if n, _ := g.Settle(nil, context.Canceled); n != 0 {
		t.Fatalf("a cancelled grant settled %d", n)
	}
	if n, _ := g.Settle(nil, nil); n != 0 {
		t.Fatalf("a stale grant settled %d", n)
	}
	if err := r.l.Close(); err != nil {
		t.Fatal(err)
	}
	return sealedRows(t, r.storeDir())
}

// TestJobRecordGoldenJSON pins the outcome rows Grant.Settle writes for
// each way an attempt ends: done, a failure that retries, a failure that
// spends the budget (with the attempt's number and error), and none for
// a cancelled or stale grant. A diff here changes what a resume
// restores.
func TestJobRecordGoldenJSON(t *testing.T) {
	data, err := json.Marshal(settleRows(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	const golden = `[{"Domain":"site00.com","Attempt":1,"State":0,"Err":""},` +
		`{"Domain":"site01.com","Attempt":1,"State":1,"Err":"reset"},` +
		`{"Domain":"site01.com","Attempt":2,"State":2,"Err":"gone"},` +
		`{"Domain":"site02.com","Attempt":1,"State":1,"Err":"gone"}]`
	if string(data) != golden {
		t.Errorf("rows drifted:\n got %s\nwant %s", data, golden)
	}
}

// TestCheckpointGoldenJSON pins the bytes of one commit end to end: the
// sealed segment of TestJobRecordGoldenJSON's settles, a page and four
// outcome rows in segment format v3. A diff here is a format change,
// and must bump the segment version (and the store's manifest version).
func TestCheckpointGoldenJSON(t *testing.T) {
	dir := t.TempDir()
	settleRows(t, dir)
	data, err := os.ReadFile(filepath.Join(dir, "store", "seg-000000.col"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const golden = "07d58f895141fc9ad4abc9ba8e3473ab0834d6deffd4b9a4bd7a83f003f99ce8"
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Errorf("segment encoding drifted: %d bytes, sha256 %s, want %s", len(data), got, golden)
	}
}

// TestJobsSetJobsInverse proves the store hands back exactly the rows
// it sealed: appended rows, sealed over two commits (one with no page),
// come back from a resumed open in order, once.
func TestJobsSetJobsInverse(t *testing.T) {
	rows := []colstore.Outcome{
		{Domain: ledgerSite(0), Attempt: 1, State: colstore.OutcomeDone},
		{Domain: ledgerSite(1), Attempt: 2, State: colstore.OutcomeFailed, Err: "x"},
		{Domain: ledgerSite(2), Attempt: 1, State: colstore.OutcomeRetry, Err: "永"},
	}
	dir := t.TempDir()
	r := &ledgerRun{t: t, dir: dir}
	r.open(false)
	for p := 0; p < ledgerPages; p++ {
		r.append(0, p)
	}
	r.settle(rows[:1]...)
	r.commit()
	r.settle(rows[1:]...)
	if err := r.l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLedger(ledgerConfig(dir, true))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Store().TakeOutcomes(); !reflect.DeepEqual(got, rows) {
		t.Errorf("the resumed store handed back %+v, want %+v", got, rows)
	}
}

// TestQueueExportRestoreJobs proves a queue round-trips through its
// outcome rows: settle some of a queue's jobs, restore their rows into a
// fresh queue, and the settled progress matches. A job leased when the
// rows were taken restores as pending with only its settled attempts:
// its lease died with its process, without spending budget.
func TestQueueExportRestoreJobs(t *testing.T) {
	sites := []crawler.Site{{Domain: "a.com", Rank: 1}, {Domain: "b.com", Rank: 2}, {Domain: "c.com", Rank: 3}, {Domain: "d.com", Rank: 4}}
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg := QueueConfig{Seed: 1, Now: clk.now, Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Second, JitterFrac: -1}}
	q := NewQueue(sites, cfg)
	ctx := context.Background()
	var rows []colstore.Outcome
	settle := func(l *Lease, failure error) {
		row, ok := l.settle(failure)
		if !ok {
			t.Fatalf("%s: stale lease", l.Site.Domain)
		}
		rows = append(rows, row)
	}
	la, _ := leaseOne(ctx, q)
	settle(la, nil)
	lb, _ := leaseOne(ctx, q)
	settle(lb, errors.New("boom"))
	lc, _ := leaseOne(ctx, q) // b.com backs off: c.com
	settle(lc, errors.New("flaky"))
	clk.advance(time.Minute)
	ls, _, ok := q.lease(ctx, 2) // b.com's and c.com's second attempts
	if !ok || len(ls) != 2 {
		t.Fatal("expected the two retries")
	}
	settle(ls[0], errors.New("boom")) // b.com spends its budget
	// c.com's second attempt is left leased on purpose.

	q2 := NewQueue(sites, cfg)
	if done := q2.restore(rows); done != 1 {
		t.Errorf("restore reported %d done, want 1", done)
	}
	if p := q2.Progress(); p.Done != 1 || p.Failed != 1 || p.Pending != 2 || p.Leased != 0 {
		t.Errorf("restored progress = %+v", p)
	}
	want := []jobRec{
		{Domain: "a.com", State: "done", Attempts: 1},
		{Domain: "b.com", State: "failed", Attempts: 2, LastErr: "boom"},
		{Domain: "c.com", State: "pending", Attempts: 1, LastErr: "flaky"},
		{Domain: "d.com", State: "pending"},
	}
	if got := jobsOf(q2); !reflect.DeepEqual(got, want) {
		t.Errorf("restored %+v, want %+v", got, want)
	}
}

// TestLeaseExpiryRowsSurviveResume spends a site's whole budget on lease
// expiries alone — its holders die without settling — and resumes: the
// reclaims' outcome rows went to the ledger through Grant, so the
// resumed queue has the site failed as the live one does, instead of
// handing it a fresh budget.
func TestLeaseExpiryRowsSurviveResume(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLedger(ledgerConfig(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	sites := []crawler.Site{{Domain: ledgerSite(0), Rank: 1}, {Domain: ledgerSite(1), Rank: 2}}
	cfg := QueueConfig{LeaseTTL: time.Minute, Seed: 7, Now: clk.now, Retry: RetryPolicy{MaxAttempts: 2}}
	q := NewQueue(sites, cfg)
	ctx := context.Background()
	var got []string
	for i := 0; i < 3; i++ { // site 0 twice, its holders die; then site 1
		g, ok := q.Grant(ctx, 1, l)
		if !ok {
			t.Fatal("no grant")
		}
		got = append(got, g.Sites()[0].Domain)
		clk.advance(2 * time.Minute)
	}
	if want := []string{ledgerSite(0), ledgerSite(0), ledgerSite(1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("granted %v, want %v", got, want)
	}
	live := jobsOf(q)
	if live[0].State != "failed" {
		t.Fatalf("live queue has %+v, want failed", live[0])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLedger(ledgerConfig(dir, true))
	if err != nil {
		t.Fatal(err)
	}
	q2 := NewQueue(sites, cfg)
	l2.Restore(q2)
	if resumed := jobsOf(q2); resumed[0] != live[0] {
		t.Errorf("resumed %+v, want the live %+v", resumed[0], live[0])
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}
