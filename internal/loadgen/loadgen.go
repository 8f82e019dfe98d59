// Package loadgen is a seeded WebSocket load generator driving the
// project's own client stack (internal/wsproto, optionally degraded
// through internal/faultnet) against a webserver echo endpoint. It
// exists to answer capacity questions — conns/sec, msgs/sec, tail
// latency, allocs/msg — about the serving plane that the deterministic
// crawl pipeline never asks.
//
// Two scheduling disciplines (DESIGN.md §13):
//
//   - Closed loop (Rate == 0): each connection keeps exactly one
//     message in flight — write, wait for the echo, repeat, Messages
//     times. Throughput is latency-coupled: the generator slows down
//     when the server does, so closed-loop numbers measure capacity
//     without ever overrunning it.
//   - Open loop (Rate > 0): each connection writes at a fixed rate for
//     Duration regardless of echo progress, the way real clients
//     arrive. Latency under an open loop includes queueing delay, so
//     this is the discipline that exposes saturation and shedding.
//
// Seeding contract: everything content-shaped — masking keys, message
// bodies, text/binary choice, fault schedules — derives from
// Config.Seed via the same per-identity derivation the crawler uses
// (faultnet.DeriveSeed), so two runs against an idle server send
// byte-identical traffic. Timing — wall-clock latency, achieved rate —
// is intentionally NOT deterministic; that is the measurement. Load
// numbers therefore stay out of the deterministic dataset: they
// describe the machine, not the synthetic web.
package loadgen

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detrand"
	"repro/internal/faultnet"
	"repro/internal/wsproto"
)

// Config parameterizes one load run. The zero value is not runnable:
// Addr is required, and the rest default as documented.
type Config struct {
	// Addr is the host:port of the target server (required).
	Addr string
	// Host is the virtual Host header for the handshake; defaults to
	// Addr (the webserver serves its echo endpoint on every host).
	Host string
	// Path is the WebSocket endpoint path; defaults to "/__echo"
	// (webserver.EchoPath).
	Path string

	// Conns is the number of concurrent connections (default 1).
	Conns int
	// Ramp staggers connection starts evenly across this window, so a
	// run can model gradual arrival instead of a thundering herd.
	Ramp time.Duration

	// Messages is the per-connection message count in closed-loop mode
	// (default 16). Ignored when Rate > 0.
	Messages int
	// Rate > 0 selects open-loop mode: each connection writes Rate
	// messages/sec for Duration, regardless of echo progress.
	Rate float64
	// Duration is the open-loop send window (required when Rate > 0).
	Duration time.Duration

	// MsgSize is the total message size in bytes, including the
	// 32-byte verification header (default 256, minimum 32).
	MsgSize int
	// BinaryRatio in [0,1] is the deterministic fraction of messages
	// sent as binary frames; the rest are text (default 0).
	BinaryRatio float64
	// Verify checks every echoed message byte-for-byte against the
	// regenerated expected content (see payload.go). Mismatches are
	// counted, not fatal.
	Verify bool

	// Seed drives all content randomness (default 1; never
	// wall-clock). Per-connection seeds derive from it.
	Seed int64

	// IdleTimeout bounds each individual read/write (default 30s).
	IdleTimeout time.Duration

	// Fault, when enabled, degrades every client connection through
	// internal/faultnet, seeded per connection from Seed — the way to
	// soak the server against slow or stalling clients.
	Fault faultnet.Profile
}

// dialTimeout bounds each connection's dial+handshake.
const dialTimeout = 10 * time.Second

func (cfg *Config) withDefaults() (Config, error) {
	c := *cfg
	if c.Addr == "" {
		return c, fmt.Errorf("loadgen: Config.Addr is required")
	}
	if c.Host == "" {
		c.Host = c.Addr
	}
	if c.Path == "" {
		c.Path = "/__echo"
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Messages <= 0 {
		c.Messages = 16
	}
	if c.MsgSize < headerLen {
		if c.MsgSize != 0 {
			return c, fmt.Errorf("loadgen: MsgSize %d below header size %d", c.MsgSize, headerLen)
		}
		c.MsgSize = 256
	}
	if c.BinaryRatio < 0 || c.BinaryRatio > 1 {
		return c, fmt.Errorf("loadgen: BinaryRatio %v outside [0,1]", c.BinaryRatio)
	}
	if c.Rate > 0 && c.Duration <= 0 {
		return c, fmt.Errorf("loadgen: open loop (Rate > 0) requires Duration")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	return c, nil
}

// Report aggregates one run's results. Field names double as the JSON
// schema cmd/wsload emits with -json.
type Report struct {
	Mode        string  `json:"mode"` // "closed" or "open"
	Conns       int     `json:"conns"`
	ConnsFailed int     `json:"conns_failed"`
	ConnsPerSec float64 `json:"conns_per_sec"` // handshakes over the dial window

	MsgsSent     int64 `json:"msgs_sent"`
	MsgsEchoed   int64 `json:"msgs_echoed"`
	BytesSent    int64 `json:"bytes_sent"`
	BytesRecv    int64 `json:"bytes_recv"`
	VerifyErrors int64 `json:"verify_errors"`

	Elapsed    time.Duration `json:"elapsed_ns"`
	MsgsPerSec float64       `json:"msgs_per_sec"`
	LatP50     time.Duration `json:"lat_p50_ns"`
	LatP90     time.Duration `json:"lat_p90_ns"`
	LatP99     time.Duration `json:"lat_p99_ns"`

	// FirstError carries the first per-connection failure, verbatim,
	// for runs where ConnsFailed > 0.
	FirstError string `json:"first_error,omitempty"`
}

// connResult is one connection's contribution, owned by its worker
// goroutine until Run joins them all.
type connResult struct {
	dialed   bool
	dialDone time.Time
	sent     int64
	echoed   int64
	bytesOut int64
	bytesIn  int64
	verErrs  int64
	lats     []int64 // echo latencies, nanoseconds
	err      error
}

// Run executes one load run and blocks until every connection's
// goroutines have exited. The context cancels the run early; whatever
// was measured up to that point is still reported.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	results := make([]connResult, c.Conns)
	var wg sync.WaitGroup
	for i := 0; i < c.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runConn(ctx, &c, i, start)
		}(i)
	}
	wg.Wait()
	return aggregate(&c, results, start, time.Since(start)), nil
}

// runConn drives one connection through ramp delay, dial, and its loop.
func runConn(ctx context.Context, cfg *Config, id int, start time.Time) connResult {
	var res connResult
	if cfg.Ramp > 0 && cfg.Conns > 1 {
		delay := cfg.Ramp * time.Duration(id) / time.Duration(cfg.Conns)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			res.err = ctx.Err()
			return res
		}
	}
	connSeed := faultnet.DeriveSeed(cfg.Seed, int64(id))
	d := wsproto.Dialer{
		Rand: detrand.New(connSeed),
		// Every virtual host resolves to the configured target.
		ResolveAddr: func(string) string { return cfg.Addr },
	}
	if cfg.Fault.Enabled() {
		d.WrapConn = func(nc net.Conn) net.Conn {
			return faultnet.WrapConn(nc, cfg.Fault, faultnet.DeriveSeed(connSeed, 0x66))
		}
	}
	dialCtx, cancel := context.WithTimeout(ctx, dialTimeout)
	conn, _, err := d.Dial(dialCtx, "ws://"+cfg.Host+cfg.Path)
	cancel()
	if err != nil {
		res.err = err
		return res
	}
	res.dialed = true
	res.dialDone = time.Now()
	defer conn.Close()
	if cfg.Rate > 0 {
		openLoop(ctx, cfg, conn, connSeed, &res)
	} else {
		closedLoop(ctx, cfg, conn, connSeed, &res)
	}
	return res
}

// closedLoop keeps one message in flight: write, read the echo, repeat.
// The measured latency is the full round trip including the write.
func closedLoop(ctx context.Context, cfg *Config, conn *wsproto.Conn, connSeed int64, res *connResult) {
	buf := make([]byte, 0, cfg.MsgSize)
	for seq := uint64(0); seq < uint64(cfg.Messages); seq++ {
		if ctx.Err() != nil {
			return
		}
		bin := isBinary(connSeed, seq, cfg.BinaryRatio)
		op := wsproto.OpText
		if bin {
			op = wsproto.OpBinary
		}
		sendAt := time.Now()
		buf = buildMessage(buf[:0], connSeed, seq, sendAt.UnixNano(), cfg.MsgSize, bin)
		_ = conn.SetWriteDeadline(sendAt.Add(cfg.IdleTimeout))
		if err := conn.WriteMessage(op, buf); err != nil {
			res.err = err
			return
		}
		res.sent++
		res.bytesOut += int64(len(buf))
		_ = conn.SetReadDeadline(time.Now().Add(cfg.IdleTimeout))
		gotOp, msg, err := conn.ReadMessage()
		if err != nil {
			res.err = err
			return
		}
		res.echoed++
		res.bytesIn += int64(len(msg))
		res.lats = append(res.lats, time.Since(sendAt).Nanoseconds())
		if cfg.Verify && !checkEcho(msg, gotOp, op, connSeed, seq, cfg.MsgSize, bin) {
			res.verErrs++
		}
	}
}

// openLoop writes at the configured rate for the configured duration
// while a reader goroutine consumes echoes concurrently; after the send
// window closes, the reader drains until every sent message came back
// (or errors out). Latency is recovered from the timestamp each message
// carries, so any number of messages can be in flight with no per-send
// bookkeeping.
func openLoop(ctx context.Context, cfg *Config, conn *wsproto.Conn, connSeed int64, res *connResult) {
	var sent, echoed atomic.Int64
	writerDone := make(chan struct{})
	readerDone := make(chan struct{})

	var lats []int64
	var bytesIn, verErrs int64
	var readErr error
	go func() {
		defer close(readerDone)
		for {
			_ = conn.SetReadDeadline(time.Now().Add(cfg.IdleTimeout))
			gotOp, msg, err := conn.ReadMessage()
			if err != nil {
				readErr = err
				return
			}
			echoed.Add(1)
			bytesIn += int64(len(msg))
			seq, sendNano, ok := parseHeader(msg)
			if !ok {
				verErrs++
				continue
			}
			lats = append(lats, time.Now().UnixNano()-sendNano)
			if cfg.Verify {
				bin := isBinary(connSeed, seq, cfg.BinaryRatio)
				op := wsproto.OpText
				if bin {
					op = wsproto.OpBinary
				}
				if !checkEcho(msg, gotOp, op, connSeed, seq, cfg.MsgSize, bin) {
					verErrs++
				}
			}
			select {
			case <-writerDone:
				if echoed.Load() >= sent.Load() {
					return
				}
			default:
			}
		}
	}()

	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	tick := time.NewTicker(interval)
	endAt := time.Now().Add(cfg.Duration)
	buf := make([]byte, 0, cfg.MsgSize)
	var seq uint64
writeLoop:
	for time.Now().Before(endAt) {
		select {
		case <-ctx.Done():
			break writeLoop
		case <-tick.C:
		}
		bin := isBinary(connSeed, seq, cfg.BinaryRatio)
		op := wsproto.OpText
		if bin {
			op = wsproto.OpBinary
		}
		now := time.Now()
		buf = buildMessage(buf[:0], connSeed, seq, now.UnixNano(), cfg.MsgSize, bin)
		_ = conn.SetWriteDeadline(now.Add(cfg.IdleTimeout))
		if err := conn.WriteMessage(op, buf); err != nil {
			if res.err == nil {
				res.err = err
			}
			break
		}
		res.bytesOut += int64(len(buf))
		sent.Add(1)
		seq++
	}
	tick.Stop()
	close(writerDone)
	// The reader exits on its own once every sent message came back —
	// but only when a message delivery lets it observe writerDone. If
	// the counts already match, it is blocked on a read that will never
	// complete; an immediate deadline bounces it out. Otherwise let it
	// drain under its own idle deadline, with ctx as the abort path.
	if echoed.Load() >= sent.Load() {
		_ = conn.SetReadDeadline(time.Now())
	}
	select {
	case <-readerDone:
	case <-ctx.Done():
		_ = conn.SetReadDeadline(time.Now())
		<-readerDone
	}

	res.sent = sent.Load()
	res.echoed = echoed.Load()
	res.bytesIn = bytesIn
	res.verErrs = verErrs
	res.lats = lats
	// A read error after the writer finished is normal teardown noise
	// when everything already came back, or when the run itself was
	// canceled (the abort path above forces the reader out with an
	// immediate deadline); otherwise surface it.
	if readErr != nil && res.echoed < res.sent && res.err == nil && ctx.Err() == nil {
		res.err = readErr
	}
}

// checkEcho validates one echoed message end to end: opcode, length,
// header, and regenerated body.
func checkEcho(msg []byte, gotOp, wantOp wsproto.Opcode, connSeed int64, seq uint64, size int, bin bool) bool {
	if gotOp != wantOp || len(msg) != size {
		return false
	}
	gotSeq, _, ok := parseHeader(msg)
	if !ok || gotSeq != seq {
		return false
	}
	return verifyBody(msg[headerLen:], connSeed, seq, bin)
}

// aggregate merges per-connection results into the Report.
func aggregate(cfg *Config, results []connResult, start time.Time, elapsed time.Duration) *Report {
	r := &Report{Mode: "closed", Conns: cfg.Conns, Elapsed: elapsed}
	if cfg.Rate > 0 {
		r.Mode = "open"
	}
	var all []int64
	var lastDial time.Time
	dialed := 0
	for i := range results {
		res := &results[i]
		if res.dialed {
			dialed++
			if res.dialDone.After(lastDial) {
				lastDial = res.dialDone
			}
		} else {
			r.ConnsFailed++
		}
		r.MsgsSent += res.sent
		r.MsgsEchoed += res.echoed
		r.BytesSent += res.bytesOut
		r.BytesRecv += res.bytesIn
		r.VerifyErrors += res.verErrs
		if res.err != nil && r.FirstError == "" && !isTeardownErr(res.err) {
			r.FirstError = res.err.Error()
		}
		all = append(all, res.lats...)
	}
	// Conns/sec over the dial window: from run start to the last
	// completed handshake. With a ramp this measures the achieved
	// arrival rate, which is the point of the ramp.
	if dialed > 0 {
		if dialWindow := lastDial.Sub(start); dialWindow > 0 {
			r.ConnsPerSec = float64(dialed) / dialWindow.Seconds()
		} else {
			r.ConnsPerSec = float64(dialed)
		}
	}
	if elapsed > 0 {
		r.MsgsPerSec = float64(r.MsgsEchoed) / elapsed.Seconds()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	r.LatP50 = percentile(all, 0.50)
	r.LatP90 = percentile(all, 0.90)
	r.LatP99 = percentile(all, 0.99)
	return r
}

// isTeardownErr filters context cancellation noise out of FirstError:
// a canceled run is not a failed run.
func isTeardownErr(err error) bool {
	return err == context.Canceled || err == context.DeadlineExceeded
}

// percentile reads the nearest-rank q-quantile from an ascending slice.
func percentile(sorted []int64, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return time.Duration(sorted[idx])
}
