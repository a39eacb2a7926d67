package client_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"thriftybarrier/internal/remote"
	"thriftybarrier/thrifty"
	"thriftybarrier/thrifty/client"
)

// server is a scripted thriftyd: the test reads the client's frames and
// writes the answers itself, so every step is ordered by the frames the
// client actually sends.
type server struct {
	t    *testing.T
	conn net.Conn
}

// waitFor starts one Wait on barrier "b" against a scripted server and
// returns the server side of the client's connection and the Wait's
// result. No heartbeats or register retransmits fire during a test:
// the lease and the retry backoff are an hour.
func waitFor(t *testing.T, ctx context.Context) (*server, *client.Client, <-chan error) {
	t.Helper()
	l := remote.NewPipeListener()
	c, err := client.New(client.Options{
		Dial:      l.Dial,
		ClientID:  "c1",
		Lease:     time.Hour,
		RetryBase: time.Hour,
		RetryMax:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		l.Close()
	})
	errc := make(chan error, 1)
	go func() { errc <- c.Wait(ctx, "b", 2) }()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return &server{t: t, conn: conn}, c, errc
}

// next reads frames until one of the given kind arrives.
func (s *server) next(kind byte) []byte {
	s.t.Helper()
	s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		p, err := remote.ReadFrame(s.conn)
		if err != nil {
			s.t.Fatalf("waiting for frame %d: %v", kind, err)
		}
		if p[0] == kind {
			return p
		}
	}
}

func (s *server) register() remote.Register {
	s.t.Helper()
	f, err := remote.DecodeRegister(s.next(remote.FrameRegister))
	if err != nil {
		s.t.Fatal(err)
	}
	return f
}

func (s *server) send(payload []byte) {
	s.t.Helper()
	if err := remote.WriteFrame(s.conn, payload); err != nil {
		s.t.Fatal(err)
	}
}

// direct answers reg with a directive for tier at epoch.
func (s *server) direct(reg remote.Register, tier byte, epoch uint64) {
	s.t.Helper()
	d := remote.Directive{
		Barrier:             reg.Barrier,
		Epoch:               epoch,
		Nonce:               reg.Nonce,
		Tier:                tier,
		PredictedStallNanos: int64(time.Millisecond),
		PollNanos:           int64(200 * time.Microsecond),
		ParkNanos:           int64(time.Millisecond),
	}
	s.send(d.Encode())
}

func (s *server) release(epoch uint64, broken bool) {
	s.t.Helper()
	r := remote.Release{Barrier: "b", Epoch: epoch, Arrived: 2, Broken: broken}
	if broken {
		r.Reason = "lease lost"
	}
	s.send(r.Encode())
}

func result(t *testing.T, errc <-chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return")
		return nil
	}
}

var tiers = []byte{remote.TierSpin, remote.TierYield, remote.TierTimedPark, remote.TierPark}

// Every directive tier ends on the release frame: nil for a release,
// thrifty.ErrBroken for a broken one.
func TestWaitReturnsOnRelease(t *testing.T) {
	for _, tier := range tiers {
		for _, broken := range []bool{false, true} {
			s, _, errc := waitFor(t, context.Background())
			reg := s.register()
			s.direct(reg, tier, 1)
			s.release(1, broken)
			err := result(t, errc)
			if broken && !errors.Is(err, thrifty.ErrBroken) {
				t.Errorf("%s: broken release returned %v, want ErrBroken", remote.TierName(tier), err)
			}
			if !broken && err != nil {
				t.Errorf("%s: release returned %v", remote.TierName(tier), err)
			}
		}
	}
}

// A cancelled ctx ends the wait with ctx.Err() whatever the directive's
// tier, and the server is told with a Cancel frame carrying the
// attempt's nonce.
func TestWaitCancelSendsCancelFrame(t *testing.T) {
	for _, tier := range tiers {
		ctx, cancel := context.WithCancel(context.Background())
		s, _, errc := waitFor(t, ctx)
		reg := s.register()
		s.direct(reg, tier, 1)
		cancel()
		f, err := remote.DecodeCancel(s.next(remote.FrameCancel))
		if err != nil {
			t.Fatal(err)
		}
		if f.Nonce != reg.Nonce || f.Barrier != "b" {
			t.Errorf("%s: cancel frame %+v does not match register %+v", remote.TierName(tier), f, reg)
		}
		if err := result(t, errc); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled wait returned %v", remote.TierName(tier), err)
		}
	}
}

// A dropped release frame is recovered in every tier: past the refresh
// deadline the client re-sends its registration with the same nonce, and
// the server's replayed release ends the wait.
func TestWaitRefreshRecoversDroppedRelease(t *testing.T) {
	for _, tier := range tiers {
		s, _, errc := waitFor(t, context.Background())
		reg := s.register()
		s.direct(reg, tier, 1)
		// The release frame is "dropped": the server sends nothing until
		// the refresh arrives.
		again := s.register()
		if again.Nonce != reg.Nonce || again.Epoch != 1 {
			t.Errorf("%s: refresh %+v, want nonce %d at epoch 1", remote.TierName(tier), again, reg.Nonce)
		}
		s.release(1, false)
		if err := result(t, errc); err != nil {
			t.Errorf("%s: recovered wait returned %v", remote.TierName(tier), err)
		}
	}
}

// A duplicate of an earlier Wait's release frame, arriving before the
// next Wait has learned its epoch, is not that Wait's outcome: the Wait
// stays until its own release.
func TestWaitIgnoresStaleRelease(t *testing.T) {
	s, c, errc := waitFor(t, context.Background())
	s.direct(s.register(), remote.TierPark, 1)
	s.release(1, false)
	if err := result(t, errc); err != nil {
		t.Fatal(err)
	}

	errc2 := make(chan error, 1)
	go func() { errc2 <- c.Wait(context.Background(), "b", 2) }()
	reg := s.register()
	s.release(1, false) // the duplicate
	s.direct(reg, remote.TierPark, 2)
	// The refresh proves the Wait outlived the duplicate.
	if again := s.register(); again.Nonce != reg.Nonce {
		t.Fatalf("refresh nonce %d, want %d", again.Nonce, reg.Nonce)
	}
	s.release(2, false)
	if err := result(t, errc2); err != nil {
		t.Fatal(err)
	}
}

// A ctx cancelled before the call joins nothing: Wait returns without
// dialing (the listener never accepts, so a dial would block it).
func TestWaitCancelledBeforeArrival(t *testing.T) {
	l := remote.NewPipeListener()
	defer l.Close()
	c, err := client.New(client.Options{Dial: l.Dial, ClientID: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Wait(ctx, "b", 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a cancelled ctx returned %v", err)
	}
}

// The client runs a wire tier as the ladder tier of the same number.
func TestWireTiersAreLadderTiers(t *testing.T) {
	for wire, tier := range map[byte]thrifty.Tier{
		remote.TierSpin: thrifty.TierSpin, remote.TierYield: thrifty.TierYield,
		remote.TierTimedPark: thrifty.TierTimedPark, remote.TierPark: thrifty.TierPark,
	} {
		if thrifty.Tier(wire) != tier {
			t.Errorf("wire tier %s is ladder tier %v, want %v", remote.TierName(wire), thrifty.Tier(wire), tier)
		}
	}
}
