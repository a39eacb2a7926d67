// Remote quickstart: the thrifty barrier as a network service.
//
// An in-process thriftyd-style server listens on a loopback TCP port;
// four clients — separate processes in a real deployment, goroutines
// here — rendezvous on a named barrier over the framed protocol. The
// server runs the paper's §3.2 last-value interval prediction per
// barrier and answers each early arrival with a sleep directive (the
// Table 3 tier ladder over the wire), and the last with the release
// itself: the client is told whether to
// spin, yield, timed-park or park, for how long, and at what poll
// cadence, so remote CPUs save the same energy local waiters do. One
// rotating straggler gives the predictor a stable ~25ms interval to
// learn; watch the directives move from the warm-up yield tier to
// timed-park once the history fills.
//
// Run with:
//
//	go run ./examples/remote
//
// Against a real daemon, start `thriftyd -listen 127.0.0.1:7474` and
// point Dial at it instead.
package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"thriftybarrier/internal/remote"
	"thriftybarrier/thrifty/client"
)

const (
	workers = 4
	rounds  = 8
)

func main() {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("listen:", err)
		return
	}
	srv := remote.NewServer(remote.Options{Lease: 2 * time.Second})
	go srv.Serve(lis)
	defer srv.Close()
	addr := lis.Addr().String()

	var wg sync.WaitGroup
	var mu sync.Mutex // serializes the per-round report lines
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			dialer := &net.Dialer{}
			c, err := client.New(client.Options{
				ClientID: fmt.Sprintf("worker-%d", w),
				Dial: func(ctx context.Context) (net.Conn, error) {
					return dialer.DialContext(ctx, "tcp", addr)
				},
			})
			if err != nil {
				fmt.Println("client:", err)
				return
			}
			defer c.Close()

			for r := 0; r < rounds; r++ {
				// One rotating straggler: everyone else arrives early and
				// stalls for ~20ms, a stable interval the server's BIT
				// learns after one epoch. (Sleep stands in for compute.)
				d := 5 * time.Millisecond
				if w == r%workers {
					d = 25 * time.Millisecond
				}
				time.Sleep(d)
				start := time.Now()
				if err := c.Wait(context.Background(), "phase", workers); err != nil {
					fmt.Printf("worker %d round %d: %v\n", w, r, err)
					return
				}
				if w == 0 {
					mu.Lock()
					fmt.Printf("round %2d released after %v\n", r, time.Since(start).Round(time.Millisecond))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	st := srv.Stats()
	fmt.Printf("\nserver: %d registrations, %d releases, %d breaks\n",
		st.Registrations, st.Releases, st.Breaks)
	for _, row := range srv.Snapshot() {
		fmt.Printf("barrier %q: epoch %d, gen %d, parties %d\n",
			row.Name, row.Epoch, row.Gen, row.Parties)
	}
}
