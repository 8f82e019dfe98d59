package loadgen

import (
	"context"
	"testing"
	"time"

	"repro/internal/webserver"
)

// The WSLoad benchmarks are end-to-end: real loopback TCP, real
// handshakes, the pooled wsproto codec on both ends, and the webserver
// echo loop. Custom metrics carry the capacity figures the ns/op column
// can't: msgs/s, conns/s, and p99 round-trip latency.

func benchRun(b *testing.B, cfg Config) {
	s, err := webserver.StartWith(nil, webserver.Options{EnableEcho: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	cfg.Addr = s.Addr()
	cfg.Seed = 1
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := Run(context.Background(), cfg)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if rep.ConnsFailed > 0 {
		b.Fatalf("%d conns failed: %s", rep.ConnsFailed, rep.FirstError)
	}
	if rep.VerifyErrors > 0 {
		b.Fatalf("%d verify errors", rep.VerifyErrors)
	}
	b.ReportMetric(rep.MsgsPerSec, "msgs/s")
	b.ReportMetric(rep.ConnsPerSec, "conns/s")
	b.ReportMetric(float64(rep.LatP99.Nanoseconds()), "p99-ns")
}

// BenchmarkWSLoadClosed: 16 closed-loop connections, one message in
// flight each. b.N spreads across the connections as messages.
func BenchmarkWSLoadClosed(b *testing.B) {
	const conns = 16
	benchRun(b, Config{
		Conns:    conns,
		Messages: b.N/conns + 1,
		MsgSize:  256,
		Verify:   true,
	})
}

// BenchmarkWSLoadOpen: 16 open-loop connections at a fixed aggregate
// rate for a fixed window — the discipline that includes queueing
// delay in its latency numbers.
func BenchmarkWSLoadOpen(b *testing.B) {
	dur := 500 * time.Millisecond
	if b.N > 1 {
		// Scale the window with b.N so go test's calibration sees the
		// cost grow; the rate stays fixed.
		dur = time.Duration(b.N) * 2 * time.Millisecond
	}
	benchRun(b, Config{
		Conns:    16,
		Rate:     500,
		Duration: dur,
		MsgSize:  256,
		Verify:   true,
	})
}

// BenchmarkWSLoadConnSetup prices connection establishment alone:
// dial, handshake, one message, teardown.
func BenchmarkWSLoadConnSetup(b *testing.B) {
	benchRun(b, Config{
		Conns:    b.N,
		Messages: 1,
		MsgSize:  64,
	})
}
