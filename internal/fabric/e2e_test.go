package fabric

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/colstore"
)

// The e2e tests prove the acceptance keystone across real processes:
// wscrawl -coordinate and wscrawl -worker, real TCP, real kill -9. The
// same seeds must produce a byte-identical merged dataset for 1, 2,
// and 4 workers, across a mid-crawl worker kill, across a mid-crawl
// coordinator kill-and-resume — and identical to the single-process
// durable path (wscrawl -store-dir), which ties the fabric to the
// repo's established determinism contract, including after that path
// is interrupted by SIGINT and resumed.

// e2eFlags is the shared crawl geometry; every run below must use the
// same values or the byte-comparison is meaningless.
var e2eFlags = []string{
	"-era", "pre", "-index", "0", "-seed", "7",
	"-publishers", "18", "-pages", "2",
}

func buildBinaries(t *testing.T) (crawlBin, queryBin string) {
	t.Helper()
	bin := t.TempDir()
	crawlBin = filepath.Join(bin, "wscrawl")
	queryBin = filepath.Join(bin, "wsquery")
	for path, pkg := range map[string]string{
		crawlBin: "repro/cmd/wscrawl",
		queryBin: "repro/cmd/wsquery",
	} {
		out, err := exec.Command("go", "build", "-o", path, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return crawlBin, queryBin
}

// coordProc wraps a running wscrawl -coordinate with live stderr scanning.
type coordProc struct {
	cmd      *exec.Cmd
	urlCh    chan string
	complete chan string // batch-complete log lines as they happen
	done     chan error

	mu    sync.Mutex
	lines []string
}

func (p *coordProc) log(t *testing.T) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// startCoord launches wscrawl -coordinate and scans its stderr for the
// serving URL and batch-complete events.
func startCoord(t *testing.T, bin, dir, addr string, resume bool, extra ...string) *coordProc {
	t.Helper()
	args := []string{
		"-out", filepath.Join(dir, "dataset.json"),
		"-store-dir", filepath.Join(dir, "store"),
		"-coordinate", addr,
		"-batch-size", "3",
		"-lease-ttl", "2s",
	}
	args = append(args, e2eFlags...)
	if resume {
		args = append(args, "-resume")
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &coordProc{
		cmd:      cmd,
		urlCh:    make(chan string, 1),
		complete: make(chan string, 256),
		done:     make(chan error, 1),
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.lines = append(p.lines, line)
			p.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "wscrawl: serving "); ok {
				select {
				case p.urlCh <- rest:
				default:
				}
			}
			if strings.Contains(line, "complete (") {
				select {
				case p.complete <- line:
				default:
				}
			}
		}
		p.done <- cmd.Wait()
	}()
	return p
}

func (p *coordProc) url(t *testing.T) string {
	t.Helper()
	select {
	case u := <-p.urlCh:
		return u
	case err := <-p.done:
		t.Fatalf("coordinator exited before serving: %v\n%s", err, p.log(t))
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator never served\n%s", p.log(t))
	}
	return ""
}

func startWorker(t *testing.T, bin, url, name string, seed int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-worker", url, "-worker-name", name,
		"-workers", "4", "-seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	return cmd
}

// runDistributed runs one full distributed crawl with n workers and
// returns the merged dataset bytes.
func runDistributed(t *testing.T, crawlBin string, n int) []byte {
	t.Helper()
	dir := t.TempDir()
	coord := startCoord(t, crawlBin, dir, "127.0.0.1:0", false)
	url := coord.url(t)
	workers := make([]*exec.Cmd, n)
	for i := range workers {
		workers[i] = startWorker(t, crawlBin, url, fmt.Sprintf("w%d", i), i+1)
	}
	select {
	case err := <-coord.done:
		if err != nil {
			t.Fatalf("coordinator failed: %v\n%s", err, coord.log(t))
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("coordinator never finished\n%s", coord.log(t))
	}
	for i, w := range workers {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "dataset.json"))
	if err != nil {
		t.Fatalf("dataset missing: %v\n%s", err, coord.log(t))
	}
	return data
}

// checkStoreOracle holds a dataset a crawl wrote to a cold read-only
// open of the store it left at storeDir.
func checkStoreOracle(t *testing.T, storeDir string, dataset []byte) {
	t.Helper()
	st, err := colstore.OpenRead(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := st.Dataset()
	var want bytes.Buffer
	if err := ds.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dataset, want.Bytes()) {
		t.Errorf("dataset differs from a cold read of its own store (%d vs %d bytes)", len(dataset), want.Len())
	}
}

func TestE2EDistributedCrawl(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: real-process crawl skipped in -short mode")
	}
	crawlBin, queryBin := buildBinaries(t)

	ref := runDistributed(t, crawlBin, 1)
	if len(ref) == 0 {
		t.Fatal("reference dataset is empty")
	}

	t.Run("worker counts converge", func(t *testing.T) {
		for _, n := range []int{2, 4} {
			if got := runDistributed(t, crawlBin, n); !bytes.Equal(got, ref) {
				t.Errorf("%d-worker dataset differs from 1-worker dataset (%d vs %d bytes)",
					n, len(got), len(ref))
			}
		}
	})

	t.Run("matches single-process durable path", func(t *testing.T) {
		dir := t.TempDir()
		out := filepath.Join(dir, "local.json")
		args := []string{
			"-out", out,
			"-store-dir", filepath.Join(dir, "store"),
			"-workers", "4",
		}
		args = append(args, e2eFlags...)
		if msg, err := exec.Command(crawlBin, args...).CombinedOutput(); err != nil {
			t.Fatalf("local wscrawl: %v\n%s", err, msg)
		}
		local, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(local, ref) {
			t.Errorf("distributed dataset differs from the single-process durable dataset (%d vs %d bytes)",
				len(ref), len(local))
		}
	})

	t.Run("local SIGINT checkpoints and resumes", func(t *testing.T) {
		dir := t.TempDir()
		out := filepath.Join(dir, "local.json")
		storeDir := filepath.Join(dir, "store-crawl0")
		args := append([]string{"-out", out, "-store-dir", storeDir}, e2eFlags...)
		// The slow profile stretches the crawl to seconds without moving
		// a byte of its dataset, so the interrupt lands mid-crawl.
		cmd := exec.Command(crawlBin, append(args, "-workers", "2", "-fault-profile", "slow")...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		deadline := time.Now().Add(60 * time.Second)
		for {
			if done, _ := sealedDone(t, storeDir); done > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no site committed before the interrupt\n%s", stderr.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		var exit *exec.ExitError
		if err := cmd.Wait(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("interrupted wscrawl: %v, want exit status 1\n%s", err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-resume to continue") {
			t.Errorf("interrupted wscrawl printed no resume hint:\n%s", stderr.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("interrupted wscrawl wrote its dataset (stat: %v)", err)
		}

		// The resume repeats the profile: the store pins it, and a
		// resume under another is another crawl's.
		msg, err := exec.Command(crawlBin, append(args, "-workers", "4", "-fault-profile", "slow", "-resume")...).CombinedOutput()
		if err != nil {
			t.Fatalf("resumed wscrawl: %v\n%s", err, msg)
		}
		if m := regexp.MustCompile(`(\d+) resumed from the store`).FindSubmatch(msg); m == nil || string(m[1]) == "0" {
			t.Errorf("resumed wscrawl recovered no sites from the interrupted run:\n%s", msg)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("dataset after SIGINT and resume differs (%d vs %d bytes)", len(got), len(ref))
		}
		checkStoreOracle(t, storeDir, got)
	})

	t.Run("local resume refuses a corrupt spool", func(t *testing.T) {
		dir := t.TempDir()
		out := filepath.Join(dir, "local.json")
		storeDir := filepath.Join(dir, "store-crawl0")
		args := append([]string{"-out", out, "-store-dir", storeDir, "-workers", "2"}, e2eFlags...)
		cmd := exec.Command(crawlBin, append(args, "-fault-profile", "slow")...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		deadline := time.Now().Add(60 * time.Second)
		for {
			if done, _ := sealedDone(t, storeDir); done > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no site committed before the kill\n%s", stderr.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()

		// Flip a byte of the last sealed segment — the kill may land
		// after a later commit than the one polled above: the crawl's
		// durable record of the sites its rows mark done no longer
		// decodes.
		_, segments := sealedDone(t, storeDir)
		seg := filepath.Join(storeDir, fmt.Sprintf("seg-%06d.col", segments-1))
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		beforeStore := storeBytes(t, storeDir)

		msg, err := exec.Command(crawlBin, append(args, "-fault-profile", "slow", "-resume")...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("resume over a corrupt segment: %v, want exit status 1\n%s", err, msg)
		}
		if !strings.Contains(string(msg), "is damaged") {
			t.Errorf("refused resume did not name the damaged segment:\n%s", msg)
		}
		if !strings.Contains(string(msg), "start the crawl from scratch") {
			t.Errorf("refused resume printed no start-fresh hint:\n%s", msg)
		}
		if !bytes.Equal(beforeStore, storeBytes(t, storeDir)) {
			t.Error("the refused resume changed the store")
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("the refused resume wrote a dataset (stat: %v)", err)
		}
	})

	t.Run("worker SIGKILL mid-crawl", func(t *testing.T) {
		dir := t.TempDir()
		coord := startCoord(t, crawlBin, dir, "127.0.0.1:0", false)
		url := coord.url(t)
		victim := startWorker(t, crawlBin, url, "victim", 1)
		survivor := startWorker(t, crawlBin, url, "survivor", 2)
		// Kill -9 the victim once the crawl is demonstrably under way.
		select {
		case <-coord.complete:
		case <-time.After(60 * time.Second):
			t.Fatalf("no batch completed before kill\n%s", coord.log(t))
		}
		if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		victim.Wait()
		select {
		case err := <-coord.done:
			if err != nil {
				t.Fatalf("coordinator failed after worker kill: %v\n%s", err, coord.log(t))
			}
		case <-time.After(120 * time.Second):
			t.Fatalf("crawl never finished after worker kill\n%s", coord.log(t))
		}
		if err := survivor.Wait(); err != nil {
			t.Fatalf("survivor: %v", err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "dataset.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("dataset after worker kill differs (%d vs %d bytes)", len(got), len(ref))
		}
	})

	t.Run("coordinator SIGKILL and resume", func(t *testing.T) {
		dir := t.TempDir()
		// Fixed port so the restarted coordinator serves the URL the
		// worker keeps retrying.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()

		// The coordinator streams pages into its columnar store: the kill
		// -9 below can land mid-segment-write, and resume must recover the
		// store to byte-agreement with an uninterrupted crawl.
		storeDir := filepath.Join(dir, "store")
		c1 := startCoord(t, crawlBin, dir, addr, false)
		url := c1.url(t)
		worker := startWorker(t, crawlBin, url, "w0", 1)
		deadline := time.Now().Add(60 * time.Second)
		for {
			if done, _ := sealedDone(t, storeDir); done > 0 {
				break // the ledger's commit rule has sealed its first rows
			}
			if time.Now().After(deadline) {
				t.Fatalf("no commit before coordinator kill\n%s", c1.log(t))
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := c1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		<-c1.done

		// Restart on the same address with -resume; the worker's dial
		// retry (default budget: ~25s of backoff) rides the gap out.
		var c2 *coordProc
		deadline = time.Now().Add(15 * time.Second)
		for {
			c2 = startCoord(t, crawlBin, dir, addr, true)
			select {
			case err := <-c2.done:
				if time.Now().After(deadline) {
					t.Fatalf("restarted coordinator kept failing: %v\n%s", err, c2.log(t))
				}
				time.Sleep(100 * time.Millisecond) // port not yet released
				continue
			case <-c2.urlCh:
			}
			break
		}
		if !strings.Contains(c2.log(t), "resumed done") {
			t.Errorf("restart log missing resume line:\n%s", c2.log(t))
		}
		select {
		case err := <-c2.done:
			if err != nil {
				t.Fatalf("resumed coordinator failed: %v\n%s", err, c2.log(t))
			}
		case <-time.After(120 * time.Second):
			t.Fatalf("resumed crawl never finished\n%s", c2.log(t))
		}
		if err := worker.Wait(); err != nil {
			t.Fatalf("worker did not survive the coordinator restart: %v", err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "dataset.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("dataset after coordinator kill+resume differs (%d vs %d bytes)", len(got), len(ref))
		}
		checkStoreOracle(t, storeDir, got)

		// The query service's view of the sealed store — a separate
		// binary, reading only the segment files — must reproduce the
		// dataset byte for byte despite the mid-crawl kill.
		queried, err := exec.Command(queryBin, "-store-dir", storeDir, "-dataset").Output()
		if err != nil {
			t.Fatalf("wsquery: %v\n%s", err, c2.log(t))
		}
		if !bytes.Equal(queried, ref) {
			t.Errorf("wsquery dataset after kill+resume differs from the uninterrupted one (%d vs %d bytes)", len(queried), len(ref))
		}
	})
}

// storeBytes is the name and contents of every file in storeDir, in
// name order: what a refused resume may not change.
func storeBytes(t *testing.T, storeDir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(storeDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		all = append(append(all, e.Name()...), data...)
	}
	return all
}
