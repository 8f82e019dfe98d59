package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/webserver"
	"repro/internal/wsproto"
)

// The ws_serve workload: the serving plane alone (wsproto + webserver
// admission), which a crawl touches on only about one page in ten. A
// world-less webserver serves its echo endpoint; loadgen.Run drives it
// on two connections, closed loop, with Verify on, in three segments:
// 64 B echoes (per-message cost), 16 KiB echoes (per-byte cost), and
// dial -> handshake -> one echo -> close cycles (connection set-up).
// Client and server share the process and the loopback interface.

const (
	wsConns    = 2
	smallBytes = 64
	largeBytes = 16 * 1024
)

// segmentResult aggregates the loadgen runs of one segment.
type segmentResult struct {
	msgsPerS  []float64 // one per slice
	cpuUS     []float64 // process CPU per echo, one per slice
	p50, p99  []float64 // microseconds, one per slice
	attempted int64
	failed    int64
	msgs      int64
	wall      float64
}

// account folds one loadgen report into the segment's attempted/failed
// counts: failed is verify errors, failed connections and unanswered
// messages.
func (s *segmentResult) account(rep *loadgen.Report) error {
	s.attempted += rep.MsgsSent + int64(rep.Conns)
	s.failed += rep.VerifyErrors + int64(rep.ConnsFailed) + (rep.MsgsSent - rep.MsgsEchoed)
	s.msgs += rep.MsgsEchoed
	if rep.FirstError != "" {
		return fmt.Errorf("loadgen: %s", rep.FirstError)
	}
	return nil
}

// echoSegment runs `slices` time-boxed closed-loop echo runs of
// msgBytes-byte messages and keeps each slice's throughput, CPU and
// latency, so the caller can report medians.
func echoSegment(ctx context.Context, addr string, seed int64, msgBytes int, seconds float64, slices int) (*segmentResult, error) {
	seg := &segmentResult{}
	// The slice's deadline also covers its two dials; the floor keeps a
	// very short run from timing a dial out.
	slice := max(time.Duration(seconds/float64(slices)*float64(time.Second)), 60*time.Millisecond)
	for i := 0; i < slices; i++ {
		runtime.GC()
		p := startProbe()
		sctx, cancel := context.WithTimeout(ctx, slice)
		rep, err := loadgen.Run(sctx, loadgen.Config{
			Addr:     addr,
			Conns:    wsConns,
			Messages: math.MaxInt32, // the context ends the slice
			MsgSize:  msgBytes,
			Verify:   true,
			Seed:     seed + int64(i),
		})
		c := p.stop()
		cancel()
		if err != nil {
			return nil, err
		}
		if err := seg.account(rep); err != nil {
			return nil, err
		}
		if rep.MsgsEchoed == 0 {
			return nil, fmt.Errorf("echo slice of %d B messages echoed nothing", msgBytes)
		}
		seg.msgsPerS = append(seg.msgsPerS, rep.MsgsPerSec)
		seg.cpuUS = append(seg.cpuUS, c.CPU*1e6/float64(rep.MsgsEchoed))
		seg.p50 = append(seg.p50, float64(rep.LatP50.Nanoseconds())/1e3)
		seg.p99 = append(seg.p99, float64(rep.LatP99.Nanoseconds())/1e3)
	}
	return seg, nil
}

// maxChurnConns caps the connections one churn or dial loop opens, so a
// run never has more closed sockets lingering than a host allows.
const maxChurnConns = 4000

// churnSegment runs dial -> handshake -> one echo -> close cycles on
// two connections at a time for about seconds (at most maxChurnConns
// connections) and returns connections per second.
func churnSegment(ctx context.Context, addr string, seed int64, seconds float64) (*segmentResult, float64, error) {
	seg := &segmentResult{}
	conns := 0
	start := time.Now()
	for n := int64(0); conns < maxChurnConns && time.Since(start).Seconds() < seconds; n++ {
		rep, err := loadgen.Run(ctx, loadgen.Config{
			Addr:     addr,
			Conns:    wsConns,
			Messages: 1,
			MsgSize:  smallBytes,
			Verify:   true,
			Seed:     seed + n,
		})
		if err != nil {
			return nil, 0, err
		}
		if err := seg.account(rep); err != nil {
			return nil, 0, err
		}
		conns += rep.Conns - rep.ConnsFailed
	}
	seg.wall = time.Since(start).Seconds()
	return seg, float64(conns) / seg.wall, nil
}

// wsSetup starts an echo server, warms both message sizes up on fresh
// connections, and shuts down: everything a serving-plane run needs
// before its first timed message.
func wsSetup(ctx context.Context, seed int64) (float64, error) {
	start := time.Now()
	server, err := webserver.StartWith(nil, webserver.Options{EnableEcho: true})
	if err != nil {
		return 0, err
	}
	defer server.Close()
	for _, warm := range []struct{ msgs, size int }{{256, smallBytes}, {16, largeBytes}} {
		rep, err := loadgen.Run(ctx, loadgen.Config{Addr: server.Addr(), Conns: wsConns, Messages: warm.msgs, MsgSize: warm.size, Verify: true, Seed: seed})
		if err != nil {
			return 0, err
		}
		if rep.MsgsEchoed != int64(wsConns*warm.msgs) || rep.VerifyErrors != 0 {
			return 0, fmt.Errorf("set-up echoes failed: %+v", rep)
		}
	}
	return time.Since(start).Seconds(), nil
}

func runWSServe(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult()
	setup, err := medianSetup(51, func() (float64, error) { return wsSetup(ctx, cfg.Seed) })
	if err != nil {
		return nil, err
	}
	od := obsStart()
	server, err := webserver.StartWith(nil, webserver.Options{EnableEcho: true})
	if err != nil {
		return nil, err
	}
	defer server.Close()
	addr := server.Addr()

	// Shares of the run each segment gets. The traced run halves the
	// loadgen segments to make room for the harness-owned loops.
	smallShare, largeShare, churnShare := 0.6, 0.2, 0.2
	if cfg.Traced {
		smallShare, largeShare, churnShare = 0.25, 0.15, 0.15
	}
	// The serving plane's spans are per segment: a span per message would
	// cost more than the message.
	tr := newTracer()
	root := tr.begin(spanRoot, -1)
	segment := func(name string, fn func() error) error {
		id := tr.begin(name, -1)
		defer tr.end(id)
		return fn()
	}
	var small, large, churn *segmentResult
	var connsPerS float64
	if err := segment("loadgen.small", func() (err error) {
		small, err = echoSegment(ctx, addr, cfg.Seed, smallBytes, cfg.Seconds*smallShare, 5)
		return err
	}); err != nil {
		return nil, err
	}
	if err := segment("loadgen.large", func() (err error) {
		large, err = echoSegment(ctx, addr, cfg.Seed+100, largeBytes, cfg.Seconds*largeShare, 3)
		return err
	}); err != nil {
		return nil, err
	}
	if err := segment("loadgen.churn", func() (err error) {
		churn, connsPerS, err = churnSegment(ctx, addr, cfg.Seed+200, cfg.Seconds*churnShare)
		return err
	}); err != nil {
		return nil, err
	}
	for _, seg := range []*segmentResult{small, large, churn} {
		res.Attempted += seg.attempted
		res.Failed += seg.failed
	}
	if res.Failed > 0 {
		return nil, fmt.Errorf("%d of %d messages and connections failed or did not verify", res.Failed, res.Attempted)
	}
	mbPerS := median(large.msgsPerS) * largeBytes / 1e6
	res.notef("loopback only, %d connections, closed loop, client and server in one process", wsConns)
	res.notef("small: %d x %d B echoes, %.0f msgs/s, p50 %.1f us, p99 %.1f us", small.msgs, smallBytes, median(small.msgsPerS), median(small.p50), median(small.p99))
	res.notef("large: %d x %d B echoes, %.1f MB/s; churn: %.0f conns/s", large.msgs, largeBytes, mbPerS, connsPerS)

	if !cfg.Traced {
		res.set("setup_s", setup)
		res.set("ops_per_s", median(small.msgsPerS))
		res.set("cpu_us_per_op", median(small.cpuUS))
		res.set("peak_rss_mb", peakRSSMiB())
		return res, nil
	}

	res.set("echo_us_p50", median(small.p50))
	res.set("echo_us_p99", median(small.p99))
	res.set("mb_per_s", mbPerS)
	res.set("conns_per_s", connsPerS)

	var dial *dialStats
	if err := segment("wsproto.Dial", func() (err error) {
		dial, err = dialLoop(ctx, addr, cfg.Seed, cfg.Seconds*0.1)
		return err
	}); err != nil {
		return nil, err
	}
	var echo64, echo16k *echoStats
	if err := segment("wsproto.echo64", func() (err error) {
		echo64, err = echoLoop(ctx, addr, cfg.Seed, smallBytes, cfg.Seconds*0.2)
		return err
	}); err != nil {
		return nil, err
	}
	if err := segment("wsproto.echo16k", func() (err error) {
		echo16k, err = echoLoop(ctx, addr, cfg.Seed, largeBytes, cfg.Seconds*0.15)
		return err
	}); err != nil {
		return nil, err
	}
	tr.end(root)
	od.stop()
	res.Spans = tr.spans
	res.Attempted += dial.conns + echo64.msgs + echo16k.msgs
	res.set("wsproto.dial_us_p50", dial.p50US)
	res.set("wsproto.allocs_per_conn", float64(dial.cost.Mallocs)/float64(dial.conns))
	res.set("wsproto.bytes_per_conn", float64(dial.cost.Bytes)/float64(dial.conns))
	res.set("wsproto.write_us_64", echo64.writeUS())
	res.set("wsproto.read_wait_us_64", echo64.readWaitUS())
	res.set("wsproto.write_us_16k", echo16k.writeUS())
	res.set("wsproto.allocs_per_msg", float64(echo64.cost.Mallocs)/float64(echo64.msgs))
	res.set("webserver.ws_handshakes", od.counter(obs.MServerHandshakes))
	res.set("webserver.conns_shed", od.counter(obs.MWSConnsShed))
	// The harness loop does what loadgen's closed loop does plus two
	// extra clock reads per echo; the throughput ratio prices them.
	res.set("trace.overhead_ratio", median(small.msgsPerS)/(float64(echo64.msgs)/echo64.cost.Wall))
	return res, nil
}

func echoDialer(addr string, seed int64) *wsproto.Dialer {
	return &wsproto.Dialer{
		Rand:        rand.New(rand.NewSource(seed)),
		ResolveAddr: func(string) string { return addr },
	}
}

func echoURL(addr string) string { return "ws://" + addr + webserver.EchoPath }

// dialStats is the outcome of the harness-owned dial loop.
type dialStats struct {
	conns int64
	p50US float64
	cost  cost
}

// dialLoop dials, handshakes and closes one connection at a time for
// about seconds. Allocation counts cover both ends of the connection:
// client and server share the process.
func dialLoop(ctx context.Context, addr string, seed int64, seconds float64) (*dialStats, error) {
	d := echoDialer(addr, seed)
	var lat []float64
	runtime.GC()
	p := startProbe()
	start := time.Now()
	for len(lat) < 20 || (len(lat) < maxChurnConns && time.Since(start).Seconds() < seconds) {
		t := time.Now()
		conn, _, err := d.Dial(ctx, echoURL(addr))
		if err != nil {
			return nil, fmt.Errorf("dial loop: %w", err)
		}
		lat = append(lat, float64(time.Since(t).Nanoseconds())/1e3)
		conn.Close()
	}
	return &dialStats{conns: int64(len(lat)), p50US: summarize(lat).P50, cost: p.stop()}, nil
}

// echoStats is the outcome of the harness-owned echo loop.
type echoStats struct {
	msgs            int64
	writeNS, readNS int64
	cost            cost
}

func (e *echoStats) writeUS() float64    { return float64(e.writeNS) / 1e3 / float64(e.msgs) }
func (e *echoStats) readWaitUS() float64 { return float64(e.readNS) / 1e3 / float64(e.msgs) }

// echoLoop is loadgen's closed loop with a clock read between the write
// and the read: wsConns connections, each writing a seeded message,
// timing WriteMessage, then timing the wait in ReadMessage, and
// checking the echo.
func echoLoop(ctx context.Context, addr string, seed int64, msgBytes int, seconds float64) (*echoStats, error) {
	type connStats struct {
		msgs, writeNS, readNS int64
		err                   error
	}
	stats := make([]connStats, wsConns)
	conns := make([]*wsproto.Conn, wsConns)
	for i := range conns {
		conn, _, err := echoDialer(addr, seed+int64(i)).Dial(ctx, echoURL(addr))
		if err != nil {
			return nil, fmt.Errorf("echo loop: %w", err)
		}
		defer conn.Close()
		conns[i] = conn
	}
	runtime.GC()
	p := startProbe()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &stats[i]
			msg := make([]byte, msgBytes)
			rand.New(rand.NewSource(seed + int64(i))).Read(msg)
			for st.msgs < 100 || time.Now().Before(deadline) {
				t0 := time.Now()
				_ = conns[i].SetDeadline(t0.Add(30 * time.Second))
				if st.err = conns[i].WriteMessage(wsproto.OpBinary, msg); st.err != nil {
					return
				}
				t1 := time.Now()
				op, echo, err := conns[i].ReadMessage()
				t2 := time.Now()
				if err != nil {
					st.err = err
					return
				}
				if op != wsproto.OpBinary || !bytes.Equal(echo, msg) {
					st.err = fmt.Errorf("echo of %d B message differs", msgBytes)
					return
				}
				st.msgs++
				st.writeNS += t1.Sub(t0).Nanoseconds()
				st.readNS += t2.Sub(t1).Nanoseconds()
			}
		}(i)
	}
	wg.Wait()
	out := &echoStats{cost: p.stop()}
	for _, st := range stats {
		if st.err != nil {
			return nil, fmt.Errorf("echo loop: %w", st.err)
		}
		out.msgs += st.msgs
		out.writeNS += st.writeNS
		out.readNS += st.readNS
	}
	return out, nil
}
