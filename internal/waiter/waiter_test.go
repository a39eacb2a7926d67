package waiter

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// The timed-park acceptance check: the steady state of the hybrid wake-up
// allocates nothing. The waiter is pre-released so TimedPark arms its
// wheel entry and immediately takes the external wake-up — the full
// arm/cancel round trip on the timing wheel plus the wake-channel pool
// cycle, with no blocking.
func TestTimedParkZeroAllocSteadyState(t *testing.T) {
	w := released()
	avg := testing.AllocsPerRun(1000, func() {
		if o, early := w.TimedPark(time.Hour); o != Released || early {
			t.Fatal("timed park did not resolve through the external wake-up")
		}
	})
	if avg != 0 {
		t.Fatalf("timed park allocated %v allocs/op in steady state (arm/cancel path miss)", avg)
	}
}

// BenchmarkTimedPark measures the non-blocking timed-park round trip (arm
// the wheel entry, win the external wake-up, cancel in O(1)).
func BenchmarkTimedPark(b *testing.B) {
	w := released()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.TimedPark(time.Hour)
	}
}

func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{
		TierSpin: "spin", TierYield: "yield", TierTimedPark: "timed-park",
		TierPark: "park", 7: "Tier(7)",
	} {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tier), got, want)
		}
	}
}

// Select takes the shallower tier at each threshold and the next tier 1 ns
// past it, and the warm-up tier whenever there is no prediction, under
// both threshold sets in use: the barrier's defaults and thriftyd's.
func TestSelectBoundaries(t *testing.T) {
	for _, c := range []struct {
		name string
		th   Thresholds
		warm Tier
	}{
		{"barrier", Thresholds{Spin: 20 * time.Microsecond, Yield: 100 * time.Microsecond, TimedPark: 5 * time.Millisecond}, TierSpin},
		{"thriftyd", Thresholds{Spin: time.Millisecond, Yield: 10 * time.Millisecond, TimedPark: 250 * time.Millisecond}, TierYield},
	} {
		th := c.th
		for _, tc := range []struct {
			stall    time.Duration
			havePred bool
			want     Tier
		}{
			{0, true, TierSpin},
			{th.Spin, true, TierSpin},
			{th.Spin + 1, true, TierYield},
			{th.Yield, true, TierYield},
			{th.Yield + 1, true, TierTimedPark},
			{th.TimedPark, true, TierTimedPark},
			{th.TimedPark + 1, true, TierPark},
			{time.Hour, true, TierPark},
			{0, false, c.warm},
			{th.Spin, false, c.warm},
			{th.TimedPark + 1, false, c.warm},
		} {
			if got := Select(tc.stall, tc.havePred, c.warm, th); got != tc.want {
				t.Errorf("%s: Select(%v, %v) = %v, want %v", c.name, tc.stall, tc.havePred, got, tc.want)
			}
		}
	}
}

// Every rung ends Released on a released waiter, Cancelled on a cancelled
// one, and — under a Limit — Expired when neither comes.
func TestRungOutcomes(t *testing.T) {
	rungs := []Tier{TierSpin, TierYield, TierTimedPark, TierPark}
	for _, spinnable := range []bool{true, false} {
		for _, tier := range rungs {
			w := released()
			w.Spinnable = spinnable
			if o := w.Run(tier, time.Millisecond); o != Released {
				t.Errorf("%v (spinnable=%v) on a released waiter: %v", tier, spinnable, o)
			}

			w, _ = newWait()
			w.Spinnable = spinnable
			cancel := make(chan struct{})
			close(cancel)
			w.Cancel = cancel
			if o := w.Run(tier, time.Millisecond); o != Cancelled {
				t.Errorf("%v (spinnable=%v) on a cancelled waiter: %v", tier, spinnable, o)
			}

			w, _ = newWait()
			w.Spinnable = spinnable
			w.Limit = time.Millisecond
			if o := w.Run(tier, time.Millisecond); o != Expired {
				t.Errorf("%v (spinnable=%v) under a limit: %v", tier, spinnable, o)
			}
		}
	}
}

// A timer-woken TimedPark residual-spins for the release and reports the
// early wake; a release that beats the timer reports late.
func TestTimedParkEarlyAndLate(t *testing.T) {
	w, release := newWait()
	w.Budget = time.Hour // the residual spin outlasts the test
	// The clock is first read when the residual spin starts: only then
	// does the release come, so the internal wake-up must have won.
	var once sync.Once
	w.Now = func() time.Time {
		once.Do(func() { go release() })
		return time.Now()
	}
	if o, early := w.TimedPark(time.Nanosecond); o != Released || !early {
		t.Fatalf("timer before the release: %v early=%v, want early release", o, early)
	}

	if o, early := released().TimedPark(time.Hour); o != Released || early {
		t.Fatalf("release before the timer: %v early=%v, want late release", o, early)
	}
}

// A spinner hands its processor over between batches. On one P, the peer
// that will release the waiter needs 100 scheduling turns; if the spin
// kept the P, each turn would wait for the scheduler's forced preemption
// (10 ms), so the wait would outlast 100 × 10 ms and spin through hundreds
// of thousands of batches. Handing over, each batch gives the peer about
// one turn. The clock is read once a batch, so it counts them.
func TestSpinHandsOverBetweenBatches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const turns = 100
	w, release := newWait()
	w.Budget = time.Hour // only the release can end the spin
	batches := 0
	w.Now = func() time.Time {
		batches++
		return time.Now()
	}
	go func() {
		for i := 0; i < turns; i++ {
			runtime.Gosched()
		}
		release()
	}()
	if o := w.SpinThenPark(); o != Released {
		t.Fatalf("spin ended %v, want Released", o)
	}
	if batches > 10*turns {
		t.Fatalf("the release took %d spin batches for a peer that needs %d turns: the spinner kept the processor", batches, turns)
	}
}
