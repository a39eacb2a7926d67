package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// waitDeadline bounds every barrier and client wait, so a lost wake-up
// fails one operation instead of hanging the run.
const waitDeadline = 2 * time.Second

// parties is a round workload's party count: one per CPU, and at least
// two, since a lone party never waits.
func (cfg *config) parties() int { return max(2, runtime.NumCPU()) }

// rounds drives a round workload: parties goroutines, one per CPU, meet
// once per round at one of sites call sites, taken in turn. Each round one
// party, rotating, is the straggler: it computes (spins) until the round's
// interval has passed since the previous round's last arrival, then
// arrives last. Every other party's release-to-return latency is measured
// from the straggler's entry into the wait to its own return.
//
// Timing the interval from the previous arrival rather than from the
// straggler's own return keeps the barrier interval what the input says:
// a late wake-up is absorbed by the next straggler's compute instead of
// lengthening the next interval, which would feed the predictor's
// overprediction cut-off with the benchmark's own noise.
//
// The intervals come from the seed; the sequence of rounds continues
// across phases, so set-up, measured and traced phases see one workload.
type rounds struct {
	parties   int
	sites     int
	intervals []time.Duration // round r's is intervals[r%len]; len is a multiple of sites
	seed      uint64
	l         *ledger
	// wait is one party's arrival at site; waitSpan names its span.
	wait     func(ctx context.Context, party, site int) error
	waitSpan string
	// beforeLast, when set, runs on the straggler after its compute and
	// before it arrives.
	beforeLast func(ctx context.Context, site int) error

	origin time.Time
	// t0 holds each recent round's last arrival, in ns since origin.
	t0   [4]atomic.Int64
	next int64 // first round of the next phase
	// samples holds each party's latencies since the last takeSamples.
	samples []reservoir
}

// roundsResult is one phase of rounds.
type roundsResult struct {
	rounds int64 // rounds every party completed
	wall   time.Duration
	cpu    time.Duration // process CPU minus the stragglers' compute
}

// latencyCap bounds the latency samples one party keeps; past it, the
// party keeps a uniform random sample (a reservoir), which holds the
// process's memory flat however many rounds a fast host completes.
const latencyCap = 1 << 15

// phaseState is shared by one phase's party goroutines.
type phaseState struct {
	start   time.Time
	d       time.Duration // measure for d; 0 = run until stop
	first   int64
	stop    atomic.Int64 // the first round not to run
	arrived []atomic.Int64
}

// phase runs the parties until d has passed (d > 0) or for n rounds.
func (ro *rounds) phase(d time.Duration, n int64, tr *tracer, parent int) roundsResult {
	if ro.origin.IsZero() {
		ro.origin = time.Now()
	}
	ph := &phaseState{start: time.Now(), d: d, first: ro.next, arrived: make([]atomic.Int64, ro.parties)}
	for p := range ph.arrived {
		ph.arrived[p].Store(ph.first - 1)
	}
	ph.stop.Store(math.MaxInt64)
	if d == 0 {
		ph.stop.Store(ph.first + n)
	}
	if ro.samples == nil {
		ro.takeSamples()
	}
	cpu0 := processCPU()
	busy := make([]time.Duration, ro.parties)
	done := make([]int64, ro.parties)
	var wg sync.WaitGroup
	for p := 0; p < ro.parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			busy[p], done[p] = ro.party(p, ph, &ro.samples[p], tr.buffer(), parent)
		}(p)
	}
	wg.Wait()
	res := roundsResult{wall: time.Since(ph.start), rounds: done[0]}
	res.cpu = processCPU() - cpu0
	for p := range busy {
		res.cpu -= busy[p]
		if done[p] < res.rounds {
			res.rounds = done[p]
		}
	}
	ro.next = ph.stop.Load()
	return res
}

// takeSamples returns the latencies, in µs, recorded since it was last
// called, and starts afresh.
func (ro *rounds) takeSamples() []float64 {
	var lat []float64
	for _, r := range ro.samples {
		lat = append(lat, r.xs...)
	}
	ro.samples = make([]reservoir, ro.parties)
	for p := range ro.samples {
		ro.samples[p] = newReservoir(ro.seed + uint64(p))
	}
	return lat
}

// party is one participant's loop. It returns the busy CPU it spent as a
// straggler and the rounds it completed.
func (ro *rounds) party(p int, ph *phaseState, lat *reservoir, buf *spanBuf, parent int) (busy time.Duration, done int64) {
	var dl deadline
	defer dl.stop()
	for r := ph.first; ; r++ {
		// Party 0 ends a timed phase. It decides before it arrives, so
		// every party reads the decision after the round's release.
		if p == 0 && ph.d > 0 && time.Since(ph.start) >= ph.d {
			ph.stop.CompareAndSwap(math.MaxInt64, r+1)
		}
		ctx := dl.get(time.Now())
		site := int(r % int64(ro.sites))
		straggler := int(r % int64(ro.parties))
		ph.arrived[p].Store(r)
		var err error
		if p == straggler {
			due := time.Duration(ro.t0[(r-1)&3].Load()) + ro.intervals[r%int64(len(ro.intervals))]
			busy += spinUntil(ro.origin.Add(due))
			if ro.beforeLast != nil {
				err = ro.beforeLast(ctx, site)
			}
			ro.t0[r&3].Store(int64(time.Since(ro.origin)))
		}
		ro.l.begin(1)
		if err == nil {
			start := time.Now()
			err = ro.wait(ctx, p, site)
			end := time.Now()
			buf.record(ro.waitSpan, parent, start, end)
			if err == nil && p != straggler {
				lat.add(float64(end.Sub(ro.origin)-time.Duration(ro.t0[r&3].Load())) / 1e3)
			}
		}
		if err != nil {
			err = fmt.Errorf("party %d round %d: %w", p, r, err)
			ph.stop.CompareAndSwap(math.MaxInt64, r+1)
		}
		ro.l.end(err)
		if err == nil {
			done++
			// The barrier contract: nobody leaves round r before everybody
			// has arrived at it.
			for q := range ph.arrived {
				if a := ph.arrived[q].Load(); a < r {
					ro.l.mismatch("party %d left round %d while party %d was at round %d", p, r, q, a)
				}
			}
		}
		if r+1 >= ph.stop.Load() {
			return busy, done
		}
	}
}

// deadline hands one party the contexts its waits run under. Each wait's
// deadline is between 1.5 s and waitDeadline away: the context is renewed
// every quarter of waitDeadline, which keeps a context per wait off the
// rendezvous path.
type deadline struct {
	ctx    context.Context
	cancel context.CancelFunc
	renew  time.Time
}

func (d *deadline) get(now time.Time) context.Context {
	if d.ctx == nil || now.After(d.renew) {
		d.stop()
		d.ctx, d.cancel = context.WithTimeout(context.Background(), waitDeadline)
		d.renew = now.Add(waitDeadline / 4)
	}
	return d.ctx
}

func (d *deadline) stop() {
	if d.cancel != nil {
		d.cancel()
	}
}

// spinUntil is the straggler's compute: it keeps the calling goroutine
// busy until deadline and returns the CPU time its thread spent doing so,
// which phase subtracts from process CPU to leave waiting CPU. The
// goroutine stays on one thread meanwhile, so the thread clock covers
// exactly the busy loop.
func spinUntil(deadline time.Time) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	for time.Now().Before(deadline) {
	}
	return threadCPU() - c0
}

// reservoir keeps up to latencyCap samples, uniformly chosen from all
// that were added.
type reservoir struct {
	xs   []float64
	seen int64
	rng  *rand.Rand
}

func newReservoir(seed uint64) reservoir {
	return reservoir{xs: make([]float64, 0, latencyCap), rng: rand.New(rand.NewSource(int64(seed)))}
}

func (r *reservoir) add(x float64) {
	r.seen++
	if len(r.xs) < latencyCap {
		r.xs = append(r.xs, x)
	} else if j := r.rng.Int63n(r.seen); j < latencyCap {
		r.xs[j] = x
	}
}

// intervalTable draws a round workload's intervals from the seed: round r
// uses site r % len(bases), and its interval is bases[site] scaled by a
// uniform factor in [1-jitter, 1+jitter].
func intervalTable(seed uint64, bases []time.Duration, jitter float64) []time.Duration {
	rng := rand.New(rand.NewSource(int64(seed)))
	out := make([]time.Duration, 4096/len(bases)*len(bases))
	for r := range out {
		f := 1 + jitter*(2*rng.Float64()-1)
		out[r] = time.Duration(float64(bases[r%len(bases)]) * f)
	}
	return out
}

// perRound divides a counter delta by the rounds of a phase.
func perRound(delta uint64, rounds int64) float64 {
	if rounds == 0 {
		return 0
	}
	return float64(delta) / float64(rounds)
}
