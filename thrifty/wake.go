package thrifty

import (
	"runtime"
	"sync/atomic"
	"time"

	"thriftybarrier/internal/waiter"
	"thriftybarrier/internal/wheel"
)

// timedParked counts waiters currently inside timedPark across every
// Barrier in the process — the load signal for the spin-then-wheel
// policy below.
var timedParked atomic.Int64

// coalescedWake is one shared internal wake-up: a broadcast-close wheel
// entry that every waiter of the round whose predicted release quantizes
// to the same tick parks on. refs counts the sharers; the last one out
// cancels the entry and unpublishes the pointer.
type coalescedWake struct {
	due  uint64 // absolute wheel tick the entry fires at
	ch   chan struct{}
	h    wheel.Handle
	refs atomic.Int32
}

// joinCoalesced returns the round's shared wake-up for a deadline d from
// now, joining the published entry when its tick matches, creating and
// publishing one when none exists, and returning nil — caller falls back
// to a private entry — when the published entry fires at a different
// tick. Tick quantization is what makes sharing sound: two deadlines on
// the same tick are indistinguishable to the wheel, so one broadcast
// close serves both without changing either waiter's wake time.
func joinCoalesced(w *wheel.Wheel, rd *round, d time.Duration) *coalescedWake {
	due := w.DueTick(d)
	for {
		cw := rd.coalesced.Load()
		if cw == nil {
			nw := &coalescedWake{ch: make(chan struct{})}
			nw.refs.Store(1)
			nw.h, nw.due = w.ArmClose(d, nw.ch)
			if nw.due != due {
				// Time advanced across a tick boundary between DueTick
				// and ArmClose; the armed tick is the truth.
				due = nw.due
			}
			if rd.coalesced.CompareAndSwap(nil, nw) {
				return nw
			}
			// Lost the publish race: retire the private entry (a failed
			// Cancel means it already closed — ours alone, no one saw it)
			// and retry against the winner.
			w.Cancel(nw.h)
			continue
		}
		if cw.due != due {
			return nil
		}
		r := cw.refs.Load()
		if r <= 0 {
			// Mid-teardown: the last leaver is about to unpublish. Help
			// clear so the retry can create a fresh entry.
			rd.coalesced.CompareAndSwap(cw, nil)
			continue
		}
		if cw.refs.CompareAndSwap(r, r+1) {
			return cw
		}
	}
}

// leaveCoalesced drops one reference on the shared wake-up; the last
// leaver cancels the wheel entry (a failed Cancel means it fired — a
// closed broadcast channel needs no drain) and unpublishes it.
func leaveCoalesced(w *wheel.Wheel, rd *round, cw *coalescedWake) {
	if cw.refs.Add(-1) == 0 {
		w.Cancel(cw.h)
		rd.coalesced.CompareAndSwap(cw, nil)
	}
}

// timedPark is the hybrid wake-up (§3.3.2) for an early arriver whose
// prediction put it in the timed-park tier: the internal wake-up is armed
// at the predicted release minus the margin, and the waiter parks on its
// external wake-up (w.Release) until either triggers. The outcome is
// reported back rather than recorded here so the caller can fold all
// post-wait bookkeeping in one place.
func (b *Barrier) timedPark(rd *round, w *waiter.Wait, predictedRelease time.Time) (out waitOutcome, o waiter.Outcome) {
	d := predictedRelease.Add(-b.opts.ParkMargin).Sub(b.opts.Now())
	if d <= 0 {
		return out, w.Park()
	}
	timedParked.Add(1)
	defer timedParked.Add(-1)

	// Waiter-count-aware spin-then-wheel: when the anticipation gap fits
	// in the spin budget AND the process is not already saturated with
	// timed-parked waiters, skip the wheel and go straight to the
	// residual spin — for a gap this short, two shard-lock sections plus
	// a channel wake cost more than the spin they would save, but only
	// while there are processors to spin on. Past one waiter per
	// processor the wheel is strictly better, so the many-barrier regime
	// always takes the wheel path. This is the internal wake-up firing at
	// arm time, hence earlyWake: the cut-off still judges the prediction.
	if d <= b.opts.SpinBudget && b.spinnable && timedParked.Load() <= int64(runtime.GOMAXPROCS(0)) {
		out.earlyWake = true
		return out, w.SpinThenPark()
	}

	// Coalesced path: with more than two parties, sibling waiters of the
	// same round predict (nearly) the same release, so their wheel
	// deadlines usually quantize to the same tick — one broadcast-close
	// entry serves them all, collapsing k arm/cancel pairs into one. At
	// parties ≤ 2 there is at most one timed parker per round, so the
	// shared entry would only add CAS traffic over the pooled private
	// path below.
	if b.parties > 2 {
		if cw := joinCoalesced(wheel.Default(), rd, d); cw != nil {
			o = w.ParkOn(cw.ch)
			leaveCoalesced(wheel.Default(), rd, cw)
			if o == waiter.Expired {
				out.earlyWake = true
				return out, w.SpinThenPark()
			}
			out.lateWake = o == waiter.Released
			return out, o
		}
	}

	o, out.earlyWake = w.TimedPark(d)
	out.lateWake = !out.earlyWake && o == waiter.Released
	return out, o
}
