package fabric

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/colstore"
	"repro/internal/crawler"
	"repro/internal/detrand"
	"repro/internal/fabric/wire"
	"repro/internal/wsproto"
)

// The coordinator is one of the dispatch.Ledger's two callers; these
// tests cover what only a real session can: a bad page frame is stopped
// before the store, so is a page arriving after Finalize, the worker that
// drains the queue hears so before Close, and a coordinator killed
// mid-crawl resumes to the uninterrupted dataset.

// TestStoreConfig: StoreConfig is the one mapping from a crawl config to
// the store identity a local crawl and a coordinator both pin. Every
// field that identifies the crawl moves it. The browser version and the
// roster size do not: the crawl's browser has no extension installed, so
// its version moves no dataset byte (crawls at Chrome 57 and 61 over 20
// publishers write identical datasets), and the roster size is pinned
// already, as the TotalSites each driver fills from the sites it queues.
func TestStoreConfig(t *testing.T) {
	base := testCrawlConfig(8)
	base.CrawlIndex, base.FaultProfile, base.FaultSeed = 1, "flaky", 3
	want := StoreConfig(base, "store", true)
	if want.Dir != "store" || !want.Resume || want.TotalSites != 0 ||
		want.Seed != crawler.CrawlSeed(base.Seed, base.CrawlIndex) || want.Meta.Name != base.Name {
		t.Fatalf("StoreConfig(%+v) = %+v", base, want)
	}
	for _, row := range []struct {
		field  string
		moves  bool
		change func(*wire.CrawlConfig)
	}{
		{"name", true, func(c *wire.CrawlConfig) { c.Name = "other" }},
		{"era", true, func(c *wire.CrawlConfig) { c.Era = "post" }},
		{"crawl index", true, func(c *wire.CrawlConfig) { c.CrawlIndex++ }},
		{"seed", true, func(c *wire.CrawlConfig) { c.Seed++ }},
		{"page budget", true, func(c *wire.CrawlConfig) { c.PagesPerSite++ }},
		{"fault profile", true, func(c *wire.CrawlConfig) { c.FaultProfile = "torn" }},
		{"fault seed", true, func(c *wire.CrawlConfig) { c.FaultSeed++ }},
		{"browser version", false, func(c *wire.CrawlConfig) { c.BrowserVersion = 61 }},
		{"publishers", false, func(c *wire.CrawlConfig) { c.NumPublishers++ }},
	} {
		c := base
		row.change(&c)
		if moved := StoreConfig(c, "store", true) != want; moved != row.moves {
			t.Errorf("changing the %s moved the store's identity: %v, want %v", row.field, moved, row.moves)
		}
	}
}

// rawSession opens a worker session by hand — hello, welcome, lease,
// grant — and returns the conn plus the granted batch.
func rawSession(t *testing.T, ctx context.Context, url, name string) (*wsproto.Conn, wire.Batch) {
	t.Helper()
	d := wsproto.Dialer{Rand: detrand.New(1)}
	conn, _, err := d.Dial(ctx, url)
	if err != nil {
		t.Fatal(err)
	}
	sendFrame(t, conn, &wire.Hello{Worker: name})
	if dec, err := readFrame(conn, 5*time.Second); err != nil || dec.Type != wire.TypeWelcome {
		t.Fatalf("welcome: %+v, %v", dec, err)
	}
	if err := writeControl(conn, wire.TypeLease); err != nil {
		t.Fatal(err)
	}
	dec, err := readFrame(conn, 5*time.Second)
	grant, ok := dec.Msg.(*wire.Grant)
	if err != nil || !ok {
		t.Fatalf("grant: %+v, %v", dec, err)
	}
	return conn, grant.Batch
}

// sendFrame writes one frame on a raw session.
func sendFrame(t *testing.T, conn *wsproto.Conn, msg wire.Message) {
	t.Helper()
	if err := writeFrame(conn, msg); err != nil {
		t.Fatal(err)
	}
}

// completeBatch streams every page of a granted batch on a raw session,
// then settles it.
func completeBatch(t *testing.T, conn *wsproto.Conn, batch wire.Batch) {
	t.Helper()
	for _, s := range batch.Sites {
		for p := 0; p < testPages; p++ {
			sendFrame(t, conn, &wire.Page{Batch: batch.ID, Site: s.Domain, Line: fakeBlock(s, p)})
		}
	}
	sendFrame(t, conn, &wire.Complete{Batch: batch.ID, Pages: len(batch.Sites) * testPages})
}

// TestCoordinatorAnswersDrainedBeforeClose is the drained-vs-shutdown
// race as wscrawl -coordinate meets it: a worker settles the crawl's
// last batch and asks for another a moment later, while the
// coordinator's owner calls Wait and then Close straight away. The worker must still hear drained;
// one cut off instead redials a coordinator that is gone and exits in
// error.
func TestCoordinatorAnswersDrainedBeforeClose(t *testing.T) {
	c := startTestCoordinator(t, t.TempDir(), testSites(2), coordOpts{batchSize: 2})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	conn, batch := rawSession(t, ctx, c.URL(), "last")
	defer conn.Close()
	completeBatch(t, conn, batch)
	closed := make(chan error, 1)
	go func() {
		err := c.Wait(ctx)
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		closed <- err
	}()

	time.Sleep(200 * time.Millisecond)
	// The write may fail: what matters is what the coordinator said first.
	_ = writeControl(conn, wire.TypeLease)
	if dec, err := readFrame(conn, 5*time.Second); err != nil || dec.Type != wire.TypeDrained {
		t.Errorf("the worker that drained the queue read %q, %v; want %q", dec.Type, err, wire.TypeDrained)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorRejectsUndecodablePage streams frames that carry no
// page record through real sessions: a binary page frame whose block is
// no page block (the block decode catches it), a page frame sent as a
// text message and a heartbeat sent as a binary one (the frame's
// message kind does), and a binary message that is no frame (the frame
// decode does). Each time the session is dropped, and the block decode
// logs its refusal; the lease goes back to the queue, a healthy worker
// finishes the crawl, and no segment ever holds the bad bytes.
func TestCoordinatorRejectsUndecodablePage(t *testing.T) {
	sites := testSites(6)
	dir := t.TempDir()
	var logMu sync.Mutex
	var logs []string
	c := startTestCoordinator(t, dir, sites, coordOpts{batchSize: 2, logf: func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i, bad := range []struct {
		name string
		op   wsproto.Opcode
		data func(wire.Batch) []byte
	}{
		{"a page frame of no block", wsproto.OpBinary, func(b wire.Batch) []byte {
			return wire.AppendPage(nil, &wire.Page{Batch: b.ID, Site: b.Sites[0].Domain, Line: []byte("torn")})
		}},
		{"a page frame as text", wsproto.OpText, func(b wire.Batch) []byte {
			return wire.AppendPage(nil, &wire.Page{Batch: b.ID, Site: b.Sites[0].Domain, Line: fakeBlock(b.Sites[0], 1)})
		}},
		{"a heartbeat as binary", wsproto.OpBinary, func(b wire.Batch) []byte {
			data, _ := wire.Encode(&wire.Heartbeat{Batch: b.ID})
			return data
		}},
		{"a binary message of no frame", wsproto.OpBinary, func(wire.Batch) []byte { return []byte("\x04\x09torn") }},
	} {
		conn, batch := rawSession(t, ctx, c.URL(), fmt.Sprintf("bad%d", i))
		sendFrame(t, conn, &wire.Page{Batch: batch.ID, Site: batch.Sites[0].Domain, Line: fakeBlock(batch.Sites[0], 0)})
		if err := conn.WriteMessage(bad.op, bad.data(batch)); err != nil {
			t.Fatal(err)
		}
		// The coordinator hangs up instead of answering.
		if dec, err := readFrame(conn, 5*time.Second); err == nil {
			t.Errorf("session survived %s: got %q", bad.name, dec.Type)
		}
		conn.Close()
	}
	logMu.Lock()
	rejected := 0
	for _, l := range logs {
		if strings.Contains(l, "rejected") {
			rejected++
		}
	}
	logMu.Unlock()
	if rejected != 1 {
		t.Errorf("%d rejected-page log lines, want 1 (the other frames die in the frame decoder)\n%s", rejected, strings.Join(logs, "\n"))
	}

	if err := runTestWorker(ctx, "good", c.URL(), workerOpts{seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if p := c.Progress(); p.Done != p.Total || p.Retries != 0 {
		t.Errorf("progress %+v: dropped sessions must release their leases without spending an attempt", p)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "store", "seg-*.col"))
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("torn")) {
			t.Errorf("%s holds the rejected line", path)
		}
	}
	diffLines(t, "store", canonicalStore(t, filepath.Join(dir, "store")), expectedLines(sites, testPages))
}

// TestCoordinatorFinalizeRefusesLatePages keeps a session attached past
// Finalize, as a coordinator's workers are, and streams one more page
// through it: the session must drop, and the page must reach neither the
// store nor the dataset Finalize already handed out.
func TestCoordinatorFinalizeRefusesLatePages(t *testing.T) {
	sites := testSites(4)
	dir := t.TempDir()
	c := startTestCoordinator(t, dir, sites, coordOpts{batchSize: 2})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	conn, batch := rawSession(t, ctx, c.URL(), "lingerer")
	defer conn.Close()
	completeBatch(t, conn, batch)
	if err := runTestWorker(ctx, "good", c.URL(), workerOpts{seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	ds, _, err := c.Finalize(analysis.DatasetMeta{Name: "fabric-test", Era: "pre"})
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := ds.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	sendFrame(t, conn, &wire.Page{Batch: batch.ID, Site: batch.Sites[0].Domain, Line: fakeBlock(batch.Sites[0], testPages)})
	dec, err := readFrame(conn, 5*time.Second)
	if err == nil && dec.Type == wire.TypeDrained {
		// The lingerer's Complete settled the last batch (the good worker
		// was faster), so it was answered; the page is refused all the same.
		dec, err = readFrame(conn, 5*time.Second)
	}
	if err == nil {
		t.Errorf("session survived a page after Finalize: got %q", dec.Type)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("a page after Finalize changed the finalized dataset")
	}
	diffLines(t, "store", canonicalStore(t, filepath.Join(dir, "store")), expectedLines(sites, testPages))
}

// finalizeBytes finalizes a drained coordinator, closes it, and checks
// the result against a cold read-only open of its own store before
// returning the dataset JSON.
func finalizeBytes(t *testing.T, c *Coordinator, dir string) []byte {
	t.Helper()
	ds, _, err := c.Finalize(analysis.DatasetMeta{Name: "fabric-test", Era: "pre"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := ds.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	st, err := colstore.OpenRead(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := st.Dataset()
	if err := cold.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("Finalize differs from a cold read of the coordinator's own store")
	}
	return got.Bytes()
}

// TestFabricStoreSurvivesCoordinatorKill: a coordinator dies mid-crawl
// — no final commit, no Close, so the store's unsealed records are lost
// exactly as under SIGKILL — and a restart with Resume on the same
// address converges on the dataset of an uninterrupted crawl.
func TestFabricStoreSurvivesCoordinatorKill(t *testing.T) {
	sites := testSites(24)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	ref := t.TempDir()
	c := startTestCoordinator(t, ref, sites, coordOpts{batchSize: 2})
	defer c.Close()
	if err := runTestWorker(ctx, "w0", c.URL(), workerOpts{seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := finalizeBytes(t, c, ref)

	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	opts := coordOpts{addr: addr, ttl: 500 * time.Millisecond, batchSize: 2}
	c1 := startTestCoordinator(t, dir, sites, opts)
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- runTestWorker(ctx, "w0", "ws://"+addr+"/fabric", workerOpts{seed: 1, delay: 2 * time.Millisecond})
	}()
	for {
		if done, _ := sealedDone(t, filepath.Join(dir, "store")); done > 0 {
			break // the ledger's commit rule has sealed its first rows
		}
		select {
		case <-ctx.Done():
			t.Fatal("no progress before the kill")
		case err := <-workerDone:
			t.Fatalf("worker exited early: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	c1.shutdown() // the kill: serving stops, the ledger is abandoned as is

	opts.resume = true
	c2 := restartTestCoordinator(t, ctx, dir, sites, opts)
	defer c2.Close()
	if c2.ResumedDone() < 3 {
		t.Errorf("ResumedDone = %d, want >= 3", c2.ResumedDone())
	}
	if err := c2.Wait(ctx); err != nil {
		t.Fatalf("resumed crawl never drained: %v", err)
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if !bytes.Equal(finalizeBytes(t, c2, dir), want) {
		t.Error("killed and resumed crawl differs from the uninterrupted dataset")
	}
}

// sealedRows reads the sealed segments of the store at storeDir and
// returns their outcome rows, in seal order, and how many segments it
// read.
func sealedRows(t *testing.T, storeDir string) (rows []colstore.Outcome, segments int) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(storeDir, "seg-*.col"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		_, segRows, err := colstore.ReadSegment(name)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, segRows...)
	}
	return rows, len(names)
}

// sealedDone is how many sites the sealed outcome rows of the store at
// storeDir mark done — what a resume of the store skips — and how many
// segments hold them.
func sealedDone(t *testing.T, storeDir string) (done, segments int) {
	t.Helper()
	rows, segments := sealedRows(t, storeDir)
	sites := map[string]bool{}
	for _, row := range rows {
		if row.State == colstore.OutcomeDone {
			sites[row.Domain] = true
		}
	}
	return len(sites), segments
}

// restartTestCoordinator starts a coordinator on an address a previous
// one just released, retrying while the kernel still holds the port.
func restartTestCoordinator(t *testing.T, ctx context.Context, dir string, sites []crawler.Site, o coordOpts) *Coordinator {
	t.Helper()
	for {
		c, err := startTestCoordinator2(dir, sites, o)
		if err == nil {
			return c
		}
		select {
		case <-ctx.Done():
			t.Fatalf("restart never bound %s: %v", o.addr, err)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestCoordinatorResumesEveryCommitPrefix is the coordinator's row of
// dispatch's TestResumeFromEveryCommitBoundary: a crash can leave the
// store's manifest plus segments 0 to k-1, with or without the torn temp
// of segment k, and a coordinator resumed over a copy of any such prefix
// of its own crawl must skip exactly the sites the prefix's rows mark
// done and converge on the uninterrupted crawl's dataset.
func TestCoordinatorResumesEveryCommitPrefix(t *testing.T) {
	sites := testSites(24)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ref := t.TempDir()
	c := startTestCoordinator(t, ref, sites, coordOpts{batchSize: 2})
	if err := runTestWorker(ctx, "w0", c.URL(), workerOpts{seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := finalizeBytes(t, c, ref)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(ref, "store")
	segs, err := filepath.Glob(filepath.Join(store, "seg-*.col"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("the crawl sealed %d segments, want a commit boundary inside it", len(segs))
	}
	points := 0
	for k := 0; k <= len(segs); k++ {
		for _, torn := range []bool{false, true} {
			dir := t.TempDir()
			copied := filepath.Join(dir, "store")
			if err := os.MkdirAll(copied, 0o755); err != nil {
				t.Fatal(err)
			}
			names := []string{"store.json"}
			for _, seg := range segs[:k] {
				names = append(names, filepath.Base(seg))
			}
			for _, name := range names {
				data, err := os.ReadFile(filepath.Join(store, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(copied, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if torn {
				if err := os.WriteFile(filepath.Join(copied, fmt.Sprintf("seg-%06d.col.tmp-1", k)), []byte("WSCOLSG1 torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			done, _ := sealedDone(t, copied)
			c := startTestCoordinator(t, dir, sites, coordOpts{batchSize: 2, resume: true})
			if c.ResumedDone() != done {
				t.Errorf("prefix %d (torn temp %v): resumed %d sites, its rows mark %d done", k, torn, c.ResumedDone(), done)
			}
			if err := runTestWorker(ctx, "w0", c.URL(), workerOpts{seed: 1}); err != nil {
				t.Fatal(err)
			}
			if err := c.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(finalizeBytes(t, c, dir), want) {
				t.Errorf("prefix %d (torn temp %v): the resumed dataset differs from the uninterrupted crawl's", k, torn)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			points++
		}
	}
	t.Logf("%d crash points covered: %d seals, each prefix clean and with a torn temp", points, len(segs))
}
