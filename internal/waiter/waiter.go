// Package waiter is the wait ladder of the thrifty barrier (§3.3): the
// rungs that execute a sleep tier once a waiter knows it must wait, and
// Select, the one §3.1 best-fit rule that picks the tier. The in-process
// barrier (thrifty) and the thriftyd client (thrifty/client) both wait
// here. The barrier selects from its local prediction; the thriftyd
// server (internal/remote) selects from its own, with its own
// thresholds, and ships the tier to the client in a directive.
//
// A Wait names a done flag (the spin target: one atomic load per spin
// iteration), a release channel (the external wake-up), a cancel
// channel, a spin budget and a clock. Every spin phase yields the
// processor between batches of loads: a spinner that keeps its P can
// hold off the very goroutine that would release it (the runtime's own
// spin rule, canSpin, spins only while the local run queue is empty).
// Every park can be bounded (Wait.Limit): the remote client bounds its
// parks by a refresh deadline, past which it re-sends its registration in
// case the release frame was lost.
package waiter

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thriftybarrier/internal/wheel"
)

// Tier identifies a wait strategy, ordered from lowest exit latency /
// highest hold cost (Spin) to highest exit latency / lowest hold cost
// (Park) — the software image of Table 3's sleep states.
type Tier int

const (
	TierSpin      Tier = iota // busy-wait on the done flag in yielding batches, then park
	TierYield                 // poll over runtime.Gosched, then park
	TierTimedPark             // park with an internal wake-up, then residual-spin
	TierPark                  // park until the release
)

func (t Tier) String() string {
	switch t {
	case TierSpin:
		return "spin"
	case TierYield:
		return "yield"
	case TierTimedPark:
		return "timed-park"
	case TierPark:
		return "park"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Thresholds are the §3.1 best-fit boundaries: the largest predicted
// stall that each of the Spin, Yield and TimedPark tiers covers. A longer
// stall parks.
type Thresholds struct {
	Spin, Yield, TimedPark time.Duration
}

// Select is the sleep() best-fit scan (§3.1): the shallowest tier whose
// threshold covers the predicted stall (stall <= threshold), and Park past
// TimedPark. Without a prediction (warm-up, or a site cut off) it returns
// warm: the in-process barrier spins there, the thriftyd server yields.
func Select(stall time.Duration, havePred bool, warm Tier, th Thresholds) Tier {
	switch {
	case !havePred:
		return warm
	case stall <= th.Spin:
		return TierSpin
	case stall <= th.Yield:
		return TierYield
	case stall <= th.TimedPark:
		return TierTimedPark
	}
	return TierPark
}

// DefaultBudget is the default spin budget: enough to catch a release
// microseconds away, little to waste on a wrong "short" prediction.
const DefaultBudget = 30 * time.Microsecond

// Outcome is how a wait ended.
type Outcome uint8

const (
	Released  Outcome = iota // the done flag was set or the release channel closed
	Cancelled                // the cancel channel fired first
	Expired                  // a bounded park (Sleep, or under Wait.Limit) timed out first
)

// Wait is one waiter's inputs. The zero value of Cancel never fires; the
// zero Limit parks without a deadline.
type Wait struct {
	// Done is set at release, before Release closes: the spin target.
	Done *atomic.Bool
	// Release is closed at release: the external wake-up.
	Release <-chan struct{}
	// Cancel abandons the wait when it fires.
	Cancel <-chan struct{}
	// Budget bounds each spin or yield phase: past it a wrong "short"
	// prediction stops burning the processor and parks.
	Budget time.Duration
	// Spinnable reports that busy-waiting can make progress (GOMAXPROCS >
	// 1): the spin phases then load the flag in batches. Without it every
	// load is followed by a yield, since a spinner only delays the
	// releaser.
	Spinnable bool
	// Limit, when positive, bounds every park: it ends Expired once Limit
	// has passed, armed on the timing wheel.
	Limit time.Duration
	// Now is the clock the budget is measured on.
	Now func() time.Time
}

// Run executes tier t: spin or yield within the budget then park, the
// hybrid TimedPark with park as the delay before its internal wake-up,
// or park.
func (w *Wait) Run(t Tier, park time.Duration) Outcome {
	switch t {
	case TierSpin:
		return w.SpinThenPark()
	case TierYield:
		return w.poll(false)
	case TierTimedPark:
		o, _ := w.TimedPark(park)
		return o
	default:
		return w.Park()
	}
}

// SpinThenPark busy-waits within the spin budget, then parks — a wrong
// "short" prediction costs at most the budget. The hot loop is a single
// atomic load; the clock, the cancel channel and the scheduler are
// consulted only every batch.
func (w *Wait) SpinThenPark() Outcome { return w.poll(w.Spinnable) }

// poll checks the done flag within the spin budget, then parks: 1024
// loads per batch when spinning, one otherwise (the yield rung). Every
// batch ends in runtime.Gosched, so a goroutine queued on this P runs now
// rather than when the budget is spent. That goroutine is typically the
// party this one's own last release woke (goready queues it on the
// releaser's P), and it is the straggler this wait is waiting for.
func (w *Wait) poll(spin bool) Outcome {
	batch := 1
	if spin {
		batch = 1024
	}
	deadline := w.Now().Add(w.Budget)
	for {
		for i := 0; i < batch; i++ {
			if w.Done.Load() {
				return Released
			}
		}
		if w.Cancel != nil {
			select {
			case <-w.Cancel:
				return Cancelled
			default:
			}
		}
		runtime.Gosched()
		if w.Now().After(deadline) {
			return w.Park()
		}
	}
}

// Park blocks until release or cancel, or — under a Limit — until the
// limit passes.
func (w *Wait) Park() Outcome {
	if w.Limit > 0 {
		return w.Sleep(w.Limit)
	}
	return w.ParkOn(nil)
}

// ParkOn blocks until release, cancel, or wake fires (Expired). A nil
// wake never fires. Callers that share one broadcast wake-up among many
// waiters park on it here.
func (w *Wait) ParkOn(wake <-chan struct{}) Outcome {
	select {
	case <-w.Release:
		return Released
	case <-w.Cancel:
		return Cancelled
	case <-wake:
		return Expired
	}
}

// TimedPark is the hybrid wake-up (§3.3.2): park on the release channel
// (the external wake-up, the flag-flip invalidation) and a timing-wheel
// entry armed d from now (the internal wake-up); the first to trigger
// cancels the other. A timer-woken waiter residual-spins until the
// release (§2's Residual Spin) and reports early.
func (w *Wait) TimedPark(d time.Duration) (o Outcome, early bool) {
	if o = w.Sleep(d); o != Expired {
		return o, false
	}
	return w.SpinThenPark(), true
}

// Sleep parks until release or cancel, or until d has passed (Expired):
// a deadline armed on the process-wide timing wheel instead of a runtime
// timer, delivered through a pooled wake channel.
func (w *Wait) Sleep(d time.Duration) Outcome {
	ch := wakeChPool.Get().(chan struct{})
	h := wheel.Default().Arm(d, ch)
	o := w.ParkOn(ch)
	if o == Expired {
		// The token is consumed, so the channel is clean for the pool.
		wakeChPool.Put(ch)
	} else {
		disarmWake(h, ch)
	}
	return o
}

// The internal wake-up (§3.3.2's programmable timer) is an entry on the
// process-wide timing wheel rather than a per-waiter time.Timer: arming
// is an O(1) bucket append, and the common cancel (the release usually
// wins) an O(1) unlink that never touches the runtime's timer heaps.
//
// The wake channel is pooled, and the pool must never hold a channel
// with a token in flight: a late token would wake the next waiter at
// once and feed a bogus early-wake sample to the predictor (the race
// that sank the earlier pooled time.Timer design, pinned by
// TestTimedParkWakeRaceExternalVsTimerFire). A failed Cancel means the
// fire owns the channel's single token, so the waiter blocks for it —
// the wheel sends right after releasing its shard lock, so the receive
// is bounded — and only a proven-empty channel is pooled.

// wakeChPool recycles the capacity-1 wake channels.
var wakeChPool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// disarmWake cancels the internal wake-up after the release or the
// cancellation won, consuming the token if the fire got there first.
func disarmWake(h wheel.Handle, ch chan struct{}) {
	if !wheel.Default().Cancel(h) {
		<-ch
	}
	wakeChPool.Put(ch)
}
