// Command thriftyd serves thrifty barriers over the network: clients
// register arrivals at named barrier epochs, the server runs the paper's
// BIT prediction per (client, barrier) and answers each with a sleep
// directive (the Table 3 tier decision, made centrally), and release
// fan-out, lease-based failure detection and broken-epoch recovery keep
// the rendezvous both thrifty and live when clients crash, partition or
// reconnect.
//
// Usage:
//
//	thriftyd -listen :7474
//	thriftyd -listen 127.0.0.1:7474 -lease 2s -max-epochs 256
//
// Runtime diagnostics go to stderr; stdout stays clean (it is reserved
// for machine-readable output, matching the other commands in this
// repo).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"thriftybarrier/internal/remote"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7474", "TCP address to serve on")
		lease     = flag.Duration("lease", 5*time.Second, "client lease: silence past this breaks the client's in-flight epochs")
		maxEpochs = flag.Int("max-epochs", 0, "open-epoch watermark before directives are widened to shed load (0 = never)")
		radix     = flag.Int("radix", 8, "release fan-out leaf width; the releasing connection writes the last leaf, so an epoch that fits in one leaf takes no goroutine")
		stall     = flag.Duration("stall-floor", 2*time.Second, "minimum stall-watchdog deadline")
		verbose   = flag.Bool("v", false, "log per-connection and per-epoch diagnostics")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		usage("unexpected arguments: %v", flag.Args())
	}
	if *lease <= 0 {
		usage("-lease must be positive, got %v", *lease)
	}
	if *maxEpochs < 0 {
		usage("-max-epochs must be >= 0, got %d", *maxEpochs)
	}
	if *radix < 1 {
		usage("-radix must be >= 1, got %d", *radix)
	}
	if *stall <= 0 {
		usage("-stall-floor must be positive, got %v", *stall)
	}
	if _, _, err := net.SplitHostPort(*listen); err != nil {
		usage("-listen %q is not a host:port address: %v", *listen, err)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	srv := remote.NewServer(remote.Options{
		Lease:       *lease,
		MaxEpochs:   *maxEpochs,
		FanoutRadix: *radix,
		StallFloor:  *stall,
		Logf:        logf,
		OnStall: func(ev remote.StallEvent) {
			fmt.Fprintf(os.Stderr,
				"thriftyd: stall: barrier %q epoch %d has %d/%d arrived after %v (predicted %v)\n",
				ev.Barrier, ev.Epoch, ev.Arrived, ev.Parties, ev.Waited, ev.PredictedBIT)
		},
	})

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "thriftyd: serving on %v (lease %v)\n", l.Addr(), *lease)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "thriftyd: shutting down")
		srv.Close()
	}()

	if err := srv.Serve(l); err != nil {
		fatal(err)
	}
}

// fatal reports a runtime failure (exit 1); flag validation uses usage
// (exit 2) instead.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "thriftyd: %v\n", err)
	os.Exit(1)
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "thriftyd: "+format+"\n", args...)
	os.Exit(2)
}
