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
	"repro/internal/crawler"
	"repro/internal/fabric/wire"
	"repro/internal/wsproto"
)

// The coordinator is one of the dispatch.Ledger's two callers; these
// tests cover what only a real session can: a bad page frame is stopped
// before the spool, so is a page arriving after Finalize, the worker that
// drains the queue hears so before Close, and a store-backed coordinator
// killed mid-crawl resumes to the uninterrupted dataset.

// rawSession opens a worker session by hand — hello, welcome, lease,
// grant — and returns the conn plus the granted batch.
func rawSession(t *testing.T, ctx context.Context, url, name string) (*wsproto.Conn, wire.Batch) {
	t.Helper()
	conn, _, err := wsproto.Dial(ctx, url)
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
			sendFrame(t, conn, &wire.Page{Batch: batch.ID, Site: s.Domain, Line: []byte(fakeLine(s, p))})
		}
	}
	sendFrame(t, conn, &wire.Complete{Batch: batch.ID, Pages: len(batch.Sites) * testPages})
}

// TestCoordinatorAnswersDrainedBeforeClose is the drained-vs-shutdown
// race as wscoordd meets it: a worker settles the crawl's last batch and
// asks for another a moment later, while the coordinator's owner calls
// Wait and then Close straight away. The worker must still hear drained;
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

// TestCoordinatorRejectsUndecodablePage streams page frames that are not
// page records through real sessions: valid JSON that is no record (the
// ledger's decode catches it) and bytes that are not JSON at all (the
// frame decode does). Either way the session is dropped and logged, the
// lease goes back to the queue, a healthy worker finishes the crawl, and
// no shard file ever holds the bad bytes.
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

	for i, line := range []string{`"{torn"`, `{torn`} {
		conn, batch := rawSession(t, ctx, c.URL(), fmt.Sprintf("bad%d", i))
		good, err := wire.Encode(&wire.Page{Batch: batch.ID, Site: batch.Sites[0].Domain, Line: []byte(fakeLine(batch.Sites[0], 0))})
		if err != nil {
			t.Fatal(err)
		}
		bad := fmt.Sprintf(`{"v":1,"type":"page","page":{"batch":%q,"site":%q,"line":%s}}`, batch.ID, batch.Sites[0].Domain, line)
		for _, frame := range [][]byte{good, []byte(bad)} {
			if err := conn.WriteMessage(wsproto.OpText, frame); err != nil {
				t.Fatal(err)
			}
		}
		// The coordinator hangs up instead of answering.
		if dec, err := readFrame(conn, 5*time.Second); err == nil {
			t.Errorf("session survived page line %s: got %q", line, dec.Type)
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
		t.Errorf("%d rejected-page log lines, want 1 (the other frame dies in the frame decoder)\n%s", rejected, strings.Join(logs, "\n"))
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
	shards, _ := filepath.Glob(filepath.Join(dir, "spool", "shard-*.jsonl"))
	for _, path := range shards {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("torn")) {
			t.Errorf("%s holds the rejected line", path)
		}
	}
	diffLines(t, "spool", canonicalSpool(t, filepath.Join(dir, "spool")), expectedLines(sites, testPages))
}

// TestCoordinatorFinalizeRefusesLatePages keeps a session attached past
// Finalize, as wscoordd's workers are, and streams one more page through
// it: the session must drop, and the page must reach neither the spool
// nor the dataset Finalize already handed out.
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

	sendFrame(t, conn, &wire.Page{Batch: batch.ID, Site: batch.Sites[0].Domain, Line: []byte(fakeLine(batch.Sites[0], testPages))})
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
	diffLines(t, "spool", canonicalSpool(t, filepath.Join(dir, "spool")), expectedLines(sites, testPages))
}

// finalizeBytes finalizes a drained coordinator and checks the result
// against the merge of its own spool before returning the dataset JSON.
func finalizeBytes(t *testing.T, c *Coordinator, dir string) []byte {
	t.Helper()
	meta := analysis.DatasetMeta{Name: "fabric-test", Era: "pre"}
	ds, _, err := c.Finalize(meta)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := ds.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	shards, _ := filepath.Glob(filepath.Join(dir, "spool", "shard-*.jsonl"))
	oracle, _, err := analysis.MergeShards(meta, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("Finalize differs from the merge of the coordinator's own spool")
	}
	return got.Bytes()
}

// TestFabricStoreSurvivesCoordinatorKill: a coordinator with a store
// dies mid-crawl — no final commit, no Close, so the spool's buffered
// groups and the store's unsealed records are lost exactly as under
// SIGKILL — and a restart with Resume on the same address converges on
// the dataset of an uninterrupted crawl, with or without a store.
func TestFabricStoreSurvivesCoordinatorKill(t *testing.T) {
	sites := testSites(24)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	crawl := func(dir string, store bool) []byte {
		c := startTestCoordinator(t, dir, sites, coordOpts{batchSize: 2, store: store})
		defer c.Close()
		if err := runTestWorker(ctx, "w0", c.URL(), workerOpts{seed: 1}); err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return finalizeBytes(t, c, dir)
	}
	want := crawl(t.TempDir(), false)
	if !bytes.Equal(crawl(t.TempDir(), true), want) {
		t.Fatal("uninterrupted store-backed crawl differs from the fold-backed one")
	}

	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	opts := coordOpts{addr: addr, ttl: 500 * time.Millisecond, batchSize: 2, store: true}
	c1 := startTestCoordinator(t, dir, sites, opts)
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- runTestWorker(ctx, "w0", "ws://"+addr+"/fabric", workerOpts{seed: 1, delay: 2 * time.Millisecond})
	}()
	for c1.Progress().Done < 3 {
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
		t.Error("killed and resumed store-backed crawl differs from the uninterrupted dataset")
	}
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
