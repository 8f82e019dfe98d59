package loadgen

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/webserver"
)

func startEcho(t testing.TB, opts webserver.Options) *webserver.Server {
	t.Helper()
	opts.EnableEcho = true
	s, err := webserver.StartWith(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// checkGoroutines asserts the run left no goroutines behind, with a
// grace window for conn teardown to unwind.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 { // scheduler/test noise tolerance
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestClosedLoopEchoVerified(t *testing.T) {
	s := startEcho(t, webserver.Options{})
	rep, err := Run(context.Background(), Config{
		Addr:        s.Addr(),
		Conns:       4,
		Messages:    25,
		MsgSize:     512,
		BinaryRatio: 0.5,
		Verify:      true,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "closed" {
		t.Errorf("mode = %q, want closed", rep.Mode)
	}
	if rep.ConnsFailed != 0 {
		t.Fatalf("ConnsFailed = %d (%s)", rep.ConnsFailed, rep.FirstError)
	}
	if rep.MsgsSent != 100 || rep.MsgsEchoed != 100 {
		t.Errorf("sent/echoed = %d/%d, want 100/100", rep.MsgsSent, rep.MsgsEchoed)
	}
	if rep.VerifyErrors != 0 {
		t.Errorf("VerifyErrors = %d, want 0", rep.VerifyErrors)
	}
	if rep.BytesSent != 100*512 || rep.BytesRecv != 100*512 {
		t.Errorf("bytes = %d/%d, want %d", rep.BytesSent, rep.BytesRecv, 100*512)
	}
	if rep.LatP50 <= 0 || rep.LatP99 < rep.LatP50 {
		t.Errorf("latency percentiles out of order: p50=%v p99=%v", rep.LatP50, rep.LatP99)
	}
	if rep.MsgsPerSec <= 0 || rep.ConnsPerSec <= 0 {
		t.Errorf("rates not positive: msgs/s=%v conns/s=%v", rep.MsgsPerSec, rep.ConnsPerSec)
	}
}

func TestOpenLoopEchoVerified(t *testing.T) {
	s := startEcho(t, webserver.Options{})
	rep, err := Run(context.Background(), Config{
		Addr:     s.Addr(),
		Conns:    4,
		Rate:     200,
		Duration: 300 * time.Millisecond,
		MsgSize:  128,
		Verify:   true,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Errorf("mode = %q, want open", rep.Mode)
	}
	if rep.ConnsFailed != 0 {
		t.Fatalf("ConnsFailed = %d (%s)", rep.ConnsFailed, rep.FirstError)
	}
	if rep.MsgsSent == 0 {
		t.Fatal("open loop sent nothing")
	}
	if rep.MsgsEchoed != rep.MsgsSent {
		t.Errorf("echoed %d of %d sent", rep.MsgsEchoed, rep.MsgsSent)
	}
	if rep.VerifyErrors != 0 {
		t.Errorf("VerifyErrors = %d, want 0", rep.VerifyErrors)
	}
}

func TestRunSameSeedSameContent(t *testing.T) {
	// Two runs with the same seed must move identical bytes (timing
	// differs; content may not). Byte totals are a cheap proxy that
	// still catches unseeded content paths.
	s := startEcho(t, webserver.Options{})
	cfg := Config{Addr: s.Addr(), Conns: 3, Messages: 10, MsgSize: 300, BinaryRatio: 0.3, Verify: true, Seed: 42}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ConnsFailed+b.ConnsFailed != 0 {
		t.Fatalf("failed conns: %d/%d", a.ConnsFailed, b.ConnsFailed)
	}
	if a.BytesSent != b.BytesSent || a.VerifyErrors+b.VerifyErrors != 0 {
		t.Errorf("same seed diverged: bytes %d vs %d, verify errors %d/%d",
			a.BytesSent, b.BytesSent, a.VerifyErrors, b.VerifyErrors)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{},                          // no Addr
		{Addr: "x", MsgSize: 16},    // below header size
		{Addr: "x", Rate: 10},       // open loop without Duration
		{Addr: "x", BinaryRatio: 2}, // ratio out of range
	} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}

func TestRunAgainstShedServer(t *testing.T) {
	// More connections than the server admits: the overflow must fail
	// fast and be reported, not hang the run. Each connection stays busy
	// long enough (hundreds of echoes) that the six overlap even when a
	// loaded machine starts them one after another.
	s := startEcho(t, webserver.Options{MaxConns: 2})
	rep, err := Run(context.Background(), Config{
		Addr:     s.Addr(),
		Conns:    6,
		Messages: 500,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConnsFailed == 0 {
		t.Error("no connections shed despite MaxConns=2")
	}
	if rep.MsgsEchoed == 0 {
		t.Error("admitted connections did no work")
	}
	if got := s.Stats.WSShed.Load(); got == 0 {
		t.Error("server recorded no sheds")
	}
}

// TestLoadSoak runs the generator under faultnet degradation at high
// concurrency and requires a clean, leak-free exit — the regression
// gate for goroutine lifecycle bugs in both loadgen and the server's
// serve loops. Sizes shrink under -short.
func TestLoadSoak(t *testing.T) {
	conns, rate := 96, 100.0
	dur := 2 * time.Second
	if testing.Short() {
		conns, rate, dur = 16, 50.0, 400*time.Millisecond
	}
	for _, name := range []string{"slow", "stall"} {
		t.Run(name, func(t *testing.T) {
			profile, ok := faultnet.ByName(name)
			if !ok {
				t.Fatalf("profile %q not registered", name)
			}
			before := runtime.NumGoroutine()
			s := startEcho(t, webserver.Options{})
			rep, err := Run(context.Background(), Config{
				Addr:        s.Addr(),
				Conns:       conns,
				Ramp:        dur / 4,
				Rate:        rate,
				Duration:    dur,
				MsgSize:     256,
				BinaryRatio: 0.25,
				Verify:      true,
				Seed:        5,
				Fault:       profile,
				IdleTimeout: 5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.ConnsFailed != 0 {
				t.Errorf("%s: %d conns failed (%s)", name, rep.ConnsFailed, rep.FirstError)
			}
			if rep.VerifyErrors != 0 {
				t.Errorf("%s: %d verify errors — fault injection must delay, not corrupt", name, rep.VerifyErrors)
			}
			if rep.MsgsEchoed != rep.MsgsSent {
				t.Errorf("%s: echoed %d of %d", name, rep.MsgsEchoed, rep.MsgsSent)
			}
			if err := s.Close(); err != nil {
				t.Errorf("server close: %v", err)
			}
			checkGoroutines(t, before)
		})
	}
}

func TestRunCancel(t *testing.T) {
	s := startEcho(t, webserver.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep, err := Run(ctx, Config{
		Addr:     s.Addr(),
		Conns:    4,
		Rate:     50,
		Duration: 30 * time.Second, // far beyond the cancel
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancel took %v to unwind", elapsed)
	}
	if rep.FirstError != "" {
		t.Errorf("cancellation surfaced as failure: %s", rep.FirstError)
	}
}
