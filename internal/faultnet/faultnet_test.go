package faultnet

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/obs"
)

func TestRegistryNamesSortedAndResolvable(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no registered profiles")
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	for _, n := range names {
		p, ok := ByName(n)
		if !ok {
			t.Fatalf("ByName(%q) missing", n)
		}
		if p.Name != n {
			t.Errorf("ByName(%q).Name = %q", n, p.Name)
		}
		if !p.Enabled() {
			t.Errorf("registered profile %q is a no-op", n)
		}
	}
	if _, ok := ByName("nosuch"); ok {
		t.Error("ByName(nosuch) resolved")
	}
	if (Profile{}).Enabled() {
		t.Error("zero profile reports Enabled")
	}
}

// TestScheduleDeterministic: the same profile and seed draw the same
// schedule; different seeds draw different ones (for a profile with
// enough entropy).
func TestScheduleDeterministic(t *testing.T) {
	p, _ := ByName("flaky")
	a := p.schedule(rand.New(rand.NewSource(42)))
	b := p.schedule(rand.New(rand.NewSource(42)))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different schedules: %+v vs %+v", a, b)
	}
	// 64 seeds must produce at least two distinct schedules.
	distinct := map[schedule]bool{}
	for seed := int64(0); seed < 64; seed++ {
		distinct[p.schedule(rand.New(rand.NewSource(seed)))] = true
	}
	if len(distinct) < 2 {
		t.Errorf("no schedule variety across seeds: %v", distinct)
	}
}

// TestScheduleFixedDrawCount: schedules must consume a fixed number of
// rng draws regardless of outcome, so conn N's schedule never depends
// on what conn N-1 drew. Drawing twice from one rng and once from a
// fresh rng advanced to the same point must agree.
func TestScheduleFixedDrawCount(t *testing.T) {
	p, _ := ByName("flaky")
	rng := rand.New(rand.NewSource(7))
	_ = p.schedule(rng)
	second := p.schedule(rng)

	rng2 := rand.New(rand.NewSource(7))
	_ = p.schedule(rng2)
	if got := p.schedule(rng2); !reflect.DeepEqual(got, second) {
		t.Errorf("draw count not fixed: %+v vs %+v", got, second)
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Error("DeriveSeed not stable")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 2, 4) {
		t.Error("DeriveSeed ignores salts")
	}
	if DeriveSeed(1) == DeriveSeed(2) {
		t.Error("DeriveSeed ignores base")
	}
}

func TestWrapConnDisabledProfilePassesThrough(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if got := WrapConn(a, Profile{}, 1); got != a {
		t.Errorf("disabled profile wrapped the conn: %T", got)
	}
}

// pipePair wraps one end of a net.Pipe with a fixed schedule and pumps
// the other end from a goroutine.
func wrapped(t *testing.T, s schedule) (faulted *Conn, peer net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	c := wrapConn(a, s)
	t.Cleanup(func() { _ = c.Close(); _ = b.Close() })
	return c, b
}

func TestReadTruncationCleanEOF(t *testing.T) {
	c, peer := wrapped(t, schedule{readCut: 5, writeCut: -1})
	go func() {
		_, _ = peer.Write([]byte("0123456789"))
	}()
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if n != 5 || err != nil {
		t.Fatalf("first read: n=%d err=%v, want 5 bytes", n, err)
	}
	if n, err := c.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("post-budget read: n=%d err=%v, want io.EOF", n, err)
	}
}

func TestReadTruncationReset(t *testing.T) {
	c, peer := wrapped(t, schedule{readCut: 3, writeCut: -1, reset: true})
	go func() { _, _ = peer.Write([]byte("abcdef")) }()
	buf := make([]byte, 16)
	if n, _ := c.Read(buf); n != 3 {
		t.Fatalf("first read n=%d, want 3", n)
	}
	if _, err := c.Read(buf); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("post-budget read err=%v, want ErrInjectedReset", err)
	}
	// The conn is poisoned: writes fail hard too.
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("write after reset err=%v, want ErrInjectedReset", err)
	}
}

func TestWriteCutClean(t *testing.T) {
	c, peer := wrapped(t, schedule{readCut: -1, writeCut: 4})
	go func() { _, _ = io.Copy(io.Discard, peer) }()
	if n, err := c.Write([]byte("abcd")); n != 4 || err != nil {
		t.Fatalf("in-budget write: n=%d err=%v", n, err)
	}
	// Budget exhausted on the boundary: the next write delivers nothing.
	n, err := c.Write([]byte("efgh"))
	if n != 0 || !errors.Is(err, ErrInjectedCut) {
		t.Fatalf("post-budget write: n=%d err=%v, want 0/ErrInjectedCut", n, err)
	}
}

func TestWriteCutShortDeliversPrefix(t *testing.T) {
	c, peer := wrapped(t, schedule{readCut: -1, writeCut: 4, short: true})
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := peer.Read(buf)
		got <- buf[:n]
	}()
	n, err := c.Write([]byte("abcdef"))
	if n != 4 || !errors.Is(err, ErrInjectedCut) {
		t.Fatalf("short write: n=%d err=%v, want 4/ErrInjectedCut", n, err)
	}
	if b := <-got; string(b) != "abcd" {
		t.Fatalf("peer saw %q, want the 4-byte prefix", b)
	}
}

func TestTornWritesChunking(t *testing.T) {
	c, peer := wrapped(t, schedule{readCut: -1, writeCut: -1, tornMax: 3})
	sizes := make(chan int, 8)
	go func() {
		buf := make([]byte, 64)
		for {
			n, err := peer.Read(buf)
			if n > 0 {
				sizes <- n
			}
			if err != nil {
				close(sizes)
				return
			}
		}
	}()
	if n, err := c.Write([]byte("0123456789")); n != 10 || err != nil {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	_ = c.Close()
	var got []int
	for n := range sizes {
		got = append(got, n)
	}
	// net.Pipe is synchronous, so each chunk surfaces as its own read.
	want := []int{3, 3, 3, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("peer read sizes %v, want %v", got, want)
	}
}

func TestStallRespectsReadDeadline(t *testing.T) {
	c, _ := wrapped(t, schedule{readCut: -1, writeCut: -1, stall: time.Minute})
	_ = c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := c.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled read err=%v, want os.ErrDeadlineExceeded", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("stall error is not a net timeout: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline-capped stall took %v", elapsed)
	}
}

func TestCloseInterruptsInjectedSleep(t *testing.T) {
	c, _ := wrapped(t, schedule{readCut: -1, writeCut: -1, stall: time.Minute})
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("read after Close err=%v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not interrupt the injected stall")
	}
}

// TestWrapConnSameSeedSameBehavior drives two conns wrapped with the
// same profile+seed through the same interaction and requires identical
// outcomes — the per-conn face of the determinism contract.
func TestWrapConnSameSeedSameBehavior(t *testing.T) {
	p, _ := ByName("rst")
	run := func() (int, error) {
		a, b := net.Pipe()
		defer b.Close()
		c := WrapConn(a, p, 1234)
		defer c.Close()
		go func() {
			buf := make([]byte, 4<<10)
			for i := 0; i < 4; i++ {
				if _, err := b.Write(buf); err != nil {
					return
				}
			}
			_ = b.Close()
		}()
		total := 0
		buf := make([]byte, 512)
		for {
			n, err := c.Read(buf)
			total += n
			if err != nil {
				return total, err
			}
		}
	}
	n1, err1 := run()
	n2, err2 := run()
	if n1 != n2 || !errors.Is(err2, err1) {
		t.Fatalf("same seed diverged: (%d, %v) vs (%d, %v)", n1, err1, n2, err2)
	}
}

// TestExchangeAppliesTheConnSchedule: an exchange fails exactly when the
// schedule a conn wrapped with the same seed would draw has a byte
// budget smaller than one of its bodies — as a reset or a clean cut, as
// that schedule says — and moves fault.conns once and fault.cuts or
// fault.resets once per failure.
func TestExchangeAppliesTheConnSchedule(t *testing.T) {
	p := Profile{TruncateProb: 0.5, TruncateMin: 10, TruncateMax: 100, ResetProb: 0.5, TornWrites: 3}
	before := obs.Default.Snapshot()
	var failed, cut, reset int64
	for seed := int64(0); seed < 200; seed++ {
		s := p.schedule(detrand.New(seed))
		sent, received := int(seed%40), 60
		var want error
		if s.readCut >= 0 && (int64(sent) > s.readCut || int64(received) > s.readCut) {
			want, failed = ErrInjectedCut, failed+1
			if s.reset {
				want, reset = ErrInjectedReset, reset+1
			} else {
				cut++
			}
		}
		if err := Exchange(context.Background(), p, seed, sent, received); err != want {
			t.Fatalf("seed %d (schedule %+v): %v, want %v", seed, s, err, want)
		}
	}
	after := obs.Default.Snapshot()
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if delta(obs.MFaultConns) != 200 || delta(obs.MFaultCuts) != cut || delta(obs.MFaultResets) != reset {
		t.Errorf("counters moved conns %d, cuts %d, resets %d; want 200, %d, %d",
			delta(obs.MFaultConns), delta(obs.MFaultCuts), delta(obs.MFaultResets), cut, reset)
	}
	if delta(obs.MFaultTornWrites) != 0 || delta(obs.MFaultShortWrites) != 0 {
		t.Error("an exchange counted torn or short writes: it delivers whole bodies")
	}
	if failed < 40 || failed > 160 {
		t.Errorf("%d of 200 exchanges failed: the draw is off", failed)
	}
}

// TestExchangeDelayEndsWithContext: an injected stall is bounded by the
// caller's context, and a disabled profile costs nothing.
func TestExchangeDelayEndsWithContext(t *testing.T) {
	if err := Exchange(context.Background(), Profile{}, 1, 1<<20, 1<<20); err != nil {
		t.Fatalf("disabled profile: %v", err)
	}
	p := Profile{StallProb: 1, Stall: time.Minute}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := Exchange(ctx, p, 1, 0, 10); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled exchange: %v, want the context's deadline", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("stalled exchange returned after %v", d)
	}
}
