// Command wsload is the seeded WebSocket load generator: it drives the
// project's own client stack (internal/wsproto, optionally degraded
// through internal/faultnet) against a webserver echo endpoint and
// reports conns/sec, msgs/sec, and tail latency. See DESIGN.md §13 for
// the architecture and OPERATIONS.md ("Load testing & capacity") for
// how to read the numbers.
//
// Usage:
//
//	wsload -addr HOST:PORT [-host NAME] [-path PATH] [-conns N]
//	       [-msgs N] [-size BYTES] [-rate MSGS/S -duration D] [-ramp D]
//	       [-binary RATIO] [-verify] [-seed S] [-fault PROFILE] [-json]
//	wsload -serve [-max-conns N] [-max-accepted N] [...]
//	       # self-serve an in-process echo server
//
// With no -rate the generator runs closed-loop: each connection keeps
// exactly one message in flight and sends -msgs messages. With -rate
// it runs open-loop: each connection writes at the given per-connection
// rate for -duration regardless of echo progress.
//
// -serve starts an in-process webserver with only the echo endpoint
// enabled and aims the generator at it — a single-command capacity
// baseline with no external target needed. -max-conns and
// -max-accepted forward to the server's admission gates, so shedding
// behaviour can be load-tested locally too.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/faultnet"
	"repro/internal/loadgen"
	"repro/internal/webserver"
)

func main() {
	var (
		addr     = flag.String("addr", "", "target host:port (omit with -serve)")
		host     = flag.String("host", "", "virtual Host header (default: addr)")
		path     = flag.String("path", webserver.EchoPath, "WebSocket endpoint path")
		conns    = flag.Int("conns", 16, "concurrent connections")
		ramp     = flag.Duration("ramp", 0, "stagger connection starts across this window")
		msgs     = flag.Int("msgs", 64, "messages per connection (closed loop)")
		rate     = flag.Float64("rate", 0, "messages/sec per connection (> 0 selects open loop)")
		duration = flag.Duration("duration", 0, "open-loop send window (required with -rate)")
		size     = flag.Int("size", 256, "message size in bytes (min 32)")
		binary   = flag.Float64("binary", 0, "fraction of messages sent as binary frames [0,1]")
		verify   = flag.Bool("verify", false, "verify every echoed message byte-for-byte")
		seed     = flag.Int64("seed", 1, "content seed (masking keys, bodies, fault schedules)")
		fault    = flag.String("fault", "", "client-side fault profile: "+strings.Join(faultnet.Names(), ", "))
		serve    = flag.Bool("serve", false, "self-serve an in-process echo server and load it")
		maxConns = flag.Int("max-conns", 0, "with -serve: server MaxConns admission cap (0 = unlimited)")
		maxAccpt = flag.Int("max-accepted", 0, "with -serve: server MaxAccepted TCP cap (0 = unlimited)")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()

	cfg := loadgen.Config{
		Addr:        *addr,
		Host:        *host,
		Path:        *path,
		Conns:       *conns,
		Ramp:        *ramp,
		Messages:    *msgs,
		Rate:        *rate,
		Duration:    *duration,
		MsgSize:     *size,
		BinaryRatio: *binary,
		Verify:      *verify,
		Seed:        *seed,
	}
	if *fault != "" {
		p, ok := faultnet.ByName(*fault)
		if !ok {
			fmt.Fprintf(os.Stderr, "wsload: unknown fault profile %q (have: %s)\n",
				*fault, strings.Join(faultnet.Names(), ", "))
			os.Exit(2)
		}
		cfg.Fault = p
	}

	if *serve {
		if *addr != "" {
			fmt.Fprintln(os.Stderr, "wsload: -serve and -addr are mutually exclusive")
			os.Exit(2)
		}
		srv, err := webserver.StartWith(nil, webserver.Options{
			EnableEcho:  true,
			MaxConns:    *maxConns,
			MaxAccepted: *maxAccpt,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsload:", err)
			os.Exit(1)
		}
		defer srv.Close()
		cfg.Addr = srv.Addr()
		if !*jsonOut {
			fmt.Printf("serving echo on %s\n", srv.Addr())
		}
	} else if *addr == "" {
		fmt.Fprintln(os.Stderr, "wsload: -addr is required (or use -serve)")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsload:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "wsload:", err)
			os.Exit(1)
		}
	} else {
		printReport(rep)
	}
	if rep.ConnsFailed > 0 || rep.VerifyErrors > 0 {
		os.Exit(1)
	}
}

func printReport(r *loadgen.Report) {
	fmt.Printf("mode        %s\n", r.Mode)
	fmt.Printf("conns       %d (%d failed)   %.1f conns/s\n", r.Conns, r.ConnsFailed, r.ConnsPerSec)
	fmt.Printf("messages    %d sent, %d echoed   %.1f msgs/s\n", r.MsgsSent, r.MsgsEchoed, r.MsgsPerSec)
	fmt.Printf("bytes       %d out, %d in\n", r.BytesSent, r.BytesRecv)
	fmt.Printf("latency     p50 %v   p90 %v   p99 %v\n", r.LatP50, r.LatP90, r.LatP99)
	fmt.Printf("elapsed     %v\n", r.Elapsed)
	if r.VerifyErrors > 0 {
		fmt.Printf("VERIFY ERRORS: %d\n", r.VerifyErrors)
	}
	if r.FirstError != "" {
		fmt.Printf("first error: %s\n", r.FirstError)
	}
}
