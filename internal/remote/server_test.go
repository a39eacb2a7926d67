package remote_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"thriftybarrier/internal/remote"
	"thriftybarrier/thrifty"
	"thriftybarrier/thrifty/client"
)

// startServer serves opts on a fresh in-memory listener and registers
// cleanup.
func startServer(t *testing.T, opts remote.Options) (*remote.Server, *remote.PipeListener) {
	t.Helper()
	srv := remote.NewServer(opts)
	l := remote.NewPipeListener()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	t.Cleanup(func() {
		srv.Close()
		l.Close()
		<-done
	})
	return srv, l
}

func newClient(t *testing.T, l *remote.PipeListener, id string, opts client.Options) *client.Client {
	t.Helper()
	opts.Dial = l.Dial
	opts.ClientID = id
	if opts.Lease == 0 {
		opts.Lease = 500 * time.Millisecond
	}
	c, err := client.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// The happy path: N clients rendezvous repeatedly; every Wait returns
// nil, the epoch counter advances once per round, and nothing breaks.
func TestRemoteBarrierReleases(t *testing.T) {
	srv, l := startServer(t, remote.Options{Lease: time.Second})
	const parties, rounds = 4, 5
	clients := make([]*client.Client, parties)
	for i := range clients {
		clients[i] = newClient(t, l, fmt.Sprintf("c%d", i), client.Options{})
	}
	var wg sync.WaitGroup
	errs := make([][]error, parties)
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				errs[i] = append(errs[i], clients[i].Wait(context.Background(), "phase", parties))
			}
		}(i)
	}
	wg.Wait()
	for i, es := range errs {
		for r, err := range es {
			if err != nil {
				t.Fatalf("client %d round %d: %v", i, r, err)
			}
		}
	}
	st := srv.Stats()
	if st.Releases != rounds {
		t.Fatalf("releases = %d, want %d", st.Releases, rounds)
	}
	if st.Breaks != 0 {
		t.Fatalf("breaks = %d, want 0", st.Breaks)
	}
	if st.Registrations != parties*rounds {
		t.Fatalf("registrations = %d, want %d (double-counting?)", st.Registrations, parties*rounds)
	}
	rows, err := clients[0].Status(context.Background())
	if err != nil || len(rows) != 1 {
		t.Fatalf("status: %v, %v", rows, err)
	}
	if rows[0].Name != "phase" || rows[0].Epoch != rounds+1 || rows[0].Arrived != 0 {
		t.Fatalf("status row: %+v", rows[0])
	}
}

// A client that goes silent past the lease breaks the epoch for its
// peers within roughly one lease interval — the liveness contract.
func TestLeaseLossBreaksEpochForPeers(t *testing.T) {
	const lease = 150 * time.Millisecond
	srv, l := startServer(t, remote.Options{Lease: lease})

	// Parties is 3: the deserter and the survivor arrive, the third seat
	// stays empty, so the epoch is still open when the deserter's lease
	// runs out.
	// The deserter registers raw — no heartbeats — then goes silent.
	conn, err := l.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reg := remote.Register{ClientID: "deserter", Barrier: "phase", Parties: 3, Nonce: 1}
	if err := remote.WriteFrame(conn, reg.Encode()); err != nil {
		t.Fatal(err)
	}
	go func() { // keep draining so server sends never block
		for {
			if _, err := remote.ReadFrame(conn); err != nil {
				return
			}
		}
	}()

	// The survivor waits through the client library.
	c := newClient(t, l, "survivor", client.Options{Lease: lease, HeartbeatEvery: lease / 4})
	start := time.Now()
	err = c.Wait(context.Background(), "phase", 3)
	elapsed := time.Since(start)
	if !errors.Is(err, thrifty.ErrBroken) {
		t.Fatalf("survivor got %v, want ErrBroken", err)
	}
	// One lease to detect plus scheduling slack.
	if elapsed > 4*lease {
		t.Fatalf("break took %v, want within ~one lease (%v)", elapsed, lease)
	}
	st := srv.Stats()
	if st.LeaseBreaks == 0 || st.Breaks == 0 {
		t.Fatalf("stats %+v: expected a lease break", st)
	}

	// The barrier must be usable again: the next epoch completes with a
	// full complement of live clients.
	c2 := newClient(t, l, "fresh2", client.Options{Lease: lease, HeartbeatEvery: lease / 4})
	c3 := newClient(t, l, "fresh3", client.Options{Lease: lease, HeartbeatEvery: lease / 4})
	var wg sync.WaitGroup
	var e1, e2, e3 error
	wg.Add(3)
	go func() { defer wg.Done(); e1 = c.Wait(context.Background(), "phase", 3) }()
	go func() { defer wg.Done(); e2 = c2.Wait(context.Background(), "phase", 3) }()
	go func() { defer wg.Done(); e3 = c3.Wait(context.Background(), "phase", 3) }()
	wg.Wait()
	if e1 != nil || e2 != nil || e3 != nil {
		t.Fatalf("post-break epoch: %v, %v, %v", e1, e2, e3)
	}
}

// A cancelled Wait (the WaitContext contract over the wire) breaks the
// epoch for the peer and returns ctx.Err() to the canceller.
func TestCancelBreaksEpoch(t *testing.T) {
	srv, l := startServer(t, remote.Options{Lease: time.Second})
	a := newClient(t, l, "a", client.Options{})
	b := newClient(t, l, "b", client.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = a.Wait(ctx, "phase", 3) }()
	go func() { defer wg.Done(); errB = b.Wait(context.Background(), "phase", 3) }()
	time.Sleep(50 * time.Millisecond) // let both register
	cancel()
	wg.Wait()
	if !errors.Is(errA, context.Canceled) {
		t.Fatalf("canceller got %v, want context.Canceled", errA)
	}
	if !errors.Is(errB, thrifty.ErrBroken) {
		t.Fatalf("peer got %v, want ErrBroken", errB)
	}
	if st := srv.Stats(); st.CancelBreaks != 1 {
		t.Fatalf("cancel breaks = %d, want 1", st.CancelBreaks)
	}
}

// WaitTimeout surfaces a missed hard deadline as ErrBroken.
func TestWaitTimeoutSurfacesErrBroken(t *testing.T) {
	_, l := startServer(t, remote.Options{Lease: time.Second})
	c := newClient(t, l, "solo", client.Options{})
	err := c.WaitTimeout("phase", 2, 100*time.Millisecond)
	if !errors.Is(err, thrifty.ErrBroken) {
		t.Fatalf("got %v, want ErrBroken", err)
	}
}

// A client whose connection dies mid-epoch reconnects and resumes the
// same arrival: exactly one registration is counted, and the epoch
// completes.
func TestReconnectResumesArrival(t *testing.T) {
	srv, l := startServer(t, remote.Options{Lease: time.Second})

	var mu sync.Mutex
	var conns []net.Conn
	dial := func(ctx context.Context) (net.Conn, error) {
		conn, err := l.Dial(ctx)
		if err == nil {
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
		return conn, err
	}
	a, err := client.New(client.Options{
		Dial: dial, ClientID: "a",
		Lease: time.Second, HeartbeatEvery: 100 * time.Millisecond,
		RetryBase: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := newClient(t, l, "b", client.Options{})

	var wg sync.WaitGroup
	var errA error
	wg.Add(1)
	go func() { defer wg.Done(); errA = a.Wait(context.Background(), "phase", 2) }()

	// Wait until a's registration landed, then kill its connection.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Registrations == 0 {
		if time.Now().After(deadline) {
			t.Fatal("a never registered")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	conns[0].Close()
	mu.Unlock()
	time.Sleep(20 * time.Millisecond) // let the client notice and redial

	var errB error
	wg.Add(1)
	go func() { defer wg.Done(); errB = b.Wait(context.Background(), "phase", 2) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("waits: %v, %v", errA, errB)
	}
	st := srv.Stats()
	if st.Registrations != 2 {
		t.Fatalf("registrations = %d, want 2 — the reconnect double-counted", st.Registrations)
	}
	if st.Releases != 1 || st.Breaks != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// Parties disagreement is a permanent, barrier-scoped error — not a
// break, not a retry loop.
func TestPartiesMismatchFailsFast(t *testing.T) {
	srv, l := startServer(t, remote.Options{Lease: time.Second})
	a := newClient(t, l, "a", client.Options{})
	b := newClient(t, l, "b", client.Options{})
	var wg sync.WaitGroup
	var errA error
	wg.Add(1)
	go func() { defer wg.Done(); errA = a.Wait(context.Background(), "phase", 2) }()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Registrations == 0 {
		if time.Now().After(deadline) {
			t.Fatal("a never registered")
		}
		time.Sleep(time.Millisecond)
	}
	errB := b.Wait(context.Background(), "phase", 3)
	if errB == nil || errors.Is(errB, thrifty.ErrBroken) {
		t.Fatalf("mismatched parties: %v, want a plain error", errB)
	}
	// a's epoch is untouched; finish it.
	c := newClient(t, l, "c", client.Options{})
	if err := c.Wait(context.Background(), "phase", 2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if errA != nil {
		t.Fatal(errA)
	}
}

// Once the predictor warms up, directives carry predictions and pick
// deeper tiers for long stalls; and under an open-epoch overload the
// server sheds by widening, never by rejecting.
func TestDirectiveTiersAndShedding(t *testing.T) {
	srv, l := startServer(t, remote.Options{Lease: 5 * time.Second, MaxEpochs: 1})
	_ = srv

	register := func(conn net.Conn, id, barrier string, nonce uint64) remote.Directive {
		t.Helper()
		reg := remote.Register{ClientID: id, Barrier: barrier, Parties: 2, Nonce: nonce}
		if err := remote.WriteFrame(conn, reg.Encode()); err != nil {
			t.Fatal(err)
		}
		for {
			p, err := remote.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if p[0] == remote.FrameDirective {
				d, err := remote.DecodeDirective(p)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
		}
	}

	dial := func() net.Conn {
		conn, err := l.Dial(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}

	// Epoch 1 on barrier "x" stays open: one arrival of two.
	cx := dial()
	dx := register(cx, "cx", "x", 1)
	if dx.Shed != 0 {
		t.Fatalf("first epoch shed: %+v", dx)
	}
	// Opening barrier "y" pushes open epochs past MaxEpochs=1: its
	// directive must be widened, with the tier floored at timed park.
	cy := dial()
	dy := register(cy, "cy", "y", 1)
	if dy.Shed == 0 {
		t.Fatalf("overloaded directive not shed: %+v", dy)
	}
	if dy.Tier < remote.TierTimedPark {
		t.Fatalf("shed directive tier %s, want >= timed-park", remote.TierName(dy.Tier))
	}
	if srv.Stats().Shed == 0 {
		t.Fatal("shed counter did not move")
	}
}

// The stall watchdog reports an epoch that outlives its deadline — to
// OnStall server-side and as an advisory frame to connected waiters —
// without breaking it.
func TestStallWatchdogAdvises(t *testing.T) {
	stalled := make(chan remote.StallEvent, 1)
	srv, l := startServer(t, remote.Options{
		Lease:      5 * time.Second,
		StallFloor: 80 * time.Millisecond,
		OnStall: func(ev remote.StallEvent) {
			select {
			case stalled <- ev:
			default:
			}
		},
	})
	advised := make(chan remote.Advisory, 1)
	c := newClient(t, l, "a", client.Options{
		Lease: 5 * time.Second,
		OnAdvisory: func(a remote.Advisory) {
			select {
			case advised <- a:
			default:
			}
		},
	})
	go c.Wait(context.Background(), "phase", 2) // second party never comes

	select {
	case ev := <-stalled:
		if ev.Barrier != "phase" || ev.Arrived != 1 || ev.Parties != 2 {
			t.Fatalf("stall event %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnStall never fired")
	}
	select {
	case adv := <-advised:
		if adv.Barrier != "phase" || adv.Arrived != 1 {
			t.Fatalf("advisory %+v", adv)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("advisory never reached the client")
	}
	if st := srv.Stats(); st.Stalls != 1 || st.Breaks != 0 {
		t.Fatalf("stats %+v: watchdog must advise, not break", st)
	}
	// Unblock the stalled epoch so cleanup is orderly.
	b := newClient(t, l, "b", client.Options{Lease: 5 * time.Second})
	if err := b.Wait(context.Background(), "phase", 2); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterClockReadUnderLock is the regression test for the server
// wedge: an arrival that read the clock before its peer but took the
// barrier lock after it released the epoch with a negative stall, and
// the predictor panicked with the lock held (a connection that had
// registered on the barrier before then deadlocked re-taking the lock in
// its teardown; a fresh one takes the process down). The injected clock
// orders the two
// registrations: the first registrant's clock read is held until the
// peer has been answered. It is held only while the barrier does not
// exist yet — once it does, the read is inside the barrier's critical
// section, and holding it there would block the peer for good.
func TestRegisterClockReadUnderLock(t *testing.T) {
	var (
		mu      sync.Mutex
		calls   int
		srv     *remote.Server
		aRead   = make(chan struct{})
		bServed = make(chan struct{})
	)
	base := time.Now()
	now := func() time.Time {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		at := base.Add(time.Duration(n) * time.Millisecond)
		if n == 2 { // A's touch is call 1; its arrival clock read is call 2
			close(aRead)
			if srv.Stats().Barriers == 0 {
				<-bServed
			}
		}
		return at
	}
	srv = remote.NewServer(remote.Options{Lease: time.Hour, StallFloor: time.Hour, Now: now})
	l := remote.NewPipeListener()
	go srv.Serve(l)
	t.Cleanup(func() {
		l.Close()
		if !t.Failed() { // a wedged server never finishes Close
			srv.Close()
		}
	})

	dial := func() net.Conn {
		conn, err := l.Dial(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		return conn
	}
	register := func(conn net.Conn, id string) {
		f := remote.Register{ClientID: id, Barrier: "b", Parties: 2, Nonce: 1}
		if err := remote.WriteFrame(conn, f.Encode()); err != nil {
			t.Error(err)
		}
	}
	expect := func(conn net.Conn, id string, kind byte) {
		p, err := remote.ReadFrame(conn)
		if err != nil {
			t.Fatalf("%s: waiting for frame %d: %v (server wedged?)", id, kind, err)
		}
		if p[0] != kind {
			t.Fatalf("%s: got frame %d, want %d", id, p[0], kind)
		}
	}

	a := dial()
	go register(a, "A")
	<-aRead
	b := dial()
	register(b, "B")
	expect(b, "B", remote.FrameDirective)
	close(bServed)
	// The release fan-out writes to A first, so drain A before B.
	expect(a, "A", remote.FrameDirective)
	expect(a, "A", remote.FrameRelease)
	expect(b, "B", remote.FrameRelease)
}
