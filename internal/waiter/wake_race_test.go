package waiter

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// released builds a waiter whose release has already happened.
func released() *Wait {
	w, release := newWait()
	release()
	return w
}

// newWait builds an unreleased waiter with the barrier's default spin
// budget, and the function that releases it.
func newWait() (*Wait, func()) {
	ch := make(chan struct{})
	w := &Wait{
		Done:      new(atomic.Bool),
		Release:   ch,
		Budget:    30 * time.Microsecond,
		Spinnable: true,
		Now:       time.Now,
	}
	return w, func() {
		w.Done.Store(true)
		close(ch)
	}
}

// TestTimedParkWakeRaceExternalVsTimerFire is the regression test for the
// pooled-timer reuse race (the timerPool satellite audit): the external
// wake-up winning the select at the same instant the internal wake-up
// fires. Under the old time.Timer pool, Stop raced the in-flight tick and
// the non-blocking drain could pool a timer with a late tick still
// undelivered, poisoning the next Get. The wheel's cancel-or-drain
// protocol must survive the same hammering with no race reports, no
// deadlock, and exactly one wake outcome per park.
//
// Every iteration arms a real wheel entry: the internal wake-up is due
// d from now and the release lands ~d from now too.
func TestTimedParkWakeRaceExternalVsTimerFire(t *testing.T) {
	const (
		workers = 4
		iters   = 400
	)
	var armed atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				w, release := newWait()
				// The release lands right around the internal wake-up
				// instant, sweeping the fire/cancel window across
				// iterations.
				d := time.Duration(1+(i%8)*25) * time.Microsecond
				go func() {
					time.Sleep(d)
					release()
				}()
				o, early := w.TimedPark(d)
				if o == Cancelled {
					t.Errorf("worker %d iter %d: spuriously cancelled with nil cancel channel", g, i)
					return
				}
				// Exactly one wake path may claim the outcome, and either
				// must end on the release: an early wake residual-spins
				// for it, a late wake was woken by it.
				if o != Released || !w.Done.Load() {
					t.Errorf("worker %d iter %d: returned %v (early=%v) before the release", g, i, o, early)
					return
				}
				armed.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if armed.Load() == 0 {
		t.Fatal("no iteration ever armed the wheel: the race window was not exercised")
	}

	// Poisoning detector: after the hammer every pooled wake channel must
	// be empty. A leftover token from a mis-drained park would surface
	// here as a bogus immediate internal wake-up (early) on a park whose
	// wheel entry cannot fire for an hour.
	w := released()
	for i := 0; i < 2*workers+16; i++ {
		if o, early := w.TimedPark(time.Hour); o != Released || early {
			t.Fatalf("iteration %d: pooled wake channel poisoned (outcome %v, early %v)", i, o, early)
		}
	}
}
