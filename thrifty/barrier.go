// Package thrifty provides an adaptive barrier for goroutines that applies
// the thrifty-barrier algorithm (Li, Martínez, Huang — HPCA 2004) at the
// runtime level. Goroutines arriving early at a barrier choose a wait
// strategy — spin, yield, timed park, or park — based on a per-call-site
// last-value prediction of the barrier interval time, the software
// analogue of the paper's selection among processor sleep states.
//
// The mapping from the paper's hardware mechanisms:
//
//   - Barrier interval time (BIT) prediction (§3.2): measured
//     release-to-release per call site (the "PC index"), last-value
//     predicted.
//   - sleep() best-fit scan (§3.1): the predicted stall is compared with
//     each wait tier's entry+exit cost; the cheapest-to-hold tier whose
//     costs are covered is chosen. Short stalls spin (lowest exit
//     latency), long stalls park (lowest hold cost — the "deep sleep").
//   - Hybrid wake-up (§3.3): parked waiters arm a timer at the predicted
//     release minus a margin (internal wake-up) and simultaneously wait on
//     the round's broadcast channel, which the releasing goroutine closes
//     (external wake-up, the analogue of the flag-flip invalidation). The
//     first to fire wins; a timer-woken waiter residual-spins.
//   - Overprediction cut-off (§3.3.3): a call site whose predictions
//     repeatedly miss by more than the cut-off fraction of the interval is
//     disabled and falls back to the default spin-then-park policy.
//
// Arrival itself is lock-free: the generation and arrival count live in a
// single atomic word (a sense-reversing counter — the release flips the
// generation, which is the "sense"), the current round is published through
// an atomic pointer, and per-site predictor state is updated with atomics,
// so the rendezvous hot path takes no mutex. The barrier's mutex serves
// only the slow paths: breaking a generation, Reset, and the stall
// watchdog. For large party counts, Options.TreeRadix arranges arrival as
// an MCS-style static combining tree of cache-line-padded counters, so
// arrival traffic is O(log N) per line instead of N CASes on one word;
// prediction, tier selection, cut-off and release semantics are identical
// in both topologies.
//
// The barrier is always correct regardless of prediction: every waiter
// ultimately blocks on the round channel, so a wildly wrong prediction can
// only cost efficiency, never correctness — mirroring the paper's
// "respects the original barrier semantics".
//
// Misbehaving participants are handled with CyclicBarrier-style
// broken-barrier semantics: WaitContext lets a waiter abandon the
// rendezvous, which breaks the current generation — every other waiter is
// woken with ErrBroken instead of hanging on a barrier that can no longer
// complete — and Reset re-arms the barrier. An optional stall watchdog
// (Options.OnStall) reports generations that exceed a multiple of their
// predicted interval, so deserted or wedged barriers surface as telemetry
// rather than silent hangs.
package thrifty

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thriftybarrier/internal/waiter"
)

// ErrBroken reports that the barrier's current generation was broken — a
// participant's context was cancelled or expired mid-wait, or Reset was
// called while waiters were blocked. Once broken, every blocked waiter
// (including already-parked ones) is woken and receives ErrBroken, and
// every new arrival fails fast with ErrBroken until Reset re-arms the
// barrier. This is the CyclicBarrier-style all-or-none contract: a broken
// generation never releases, so no caller can mistake a partial rendezvous
// for a completed one.
var ErrBroken = errors.New("thrifty: barrier is broken")

// noCopy triggers go vet's copylocks check on values embedding it,
// enforcing the "must not be copied after first use" doc contract.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Tier identifies a wait strategy, ordered from lowest exit latency /
// highest hold cost (Spin) to highest exit latency / lowest hold cost
// (Park) — the software image of Table 3's sleep states. The thriftyd
// client executes the same tiers.
type Tier = waiter.Tier

const (
	TierSpin      = waiter.TierSpin      // busy-wait on the round in yielding batches, then park
	TierYield     = waiter.TierYield     // poll over runtime.Gosched, then park
	TierTimedPark = waiter.TierTimedPark // park with an internal wake-up, then residual-spin
	TierPark      = waiter.TierPark      // park until the release
	numTiers      = int(TierPark) + 1
)

// Options configures a Barrier. The zero value of each field selects the
// default.
type Options struct {
	// SpinThreshold is the largest predicted stall that spins.
	// Default 20µs.
	SpinThreshold time.Duration
	// YieldThreshold is the largest predicted stall that yields.
	// Default 100µs.
	YieldThreshold time.Duration
	// ParkMargin is how long before the predicted release a timed-parked
	// waiter wakes to residual-spin (the internal wake-up anticipation).
	// Default 50µs.
	ParkMargin time.Duration
	// TimedParkThreshold is the largest predicted stall that uses a timed
	// park; beyond it the waiter parks outright. Default 5ms.
	TimedParkThreshold time.Duration
	// Cutoff is the overprediction threshold as a fraction of the interval
	// (paper: 10%). A site whose prediction misses by more than this,
	// MaxStrikes times, is disabled. Default 0.10.
	Cutoff float64
	// MaxStrikes is how many cut-off violations disable a site. Default 2.
	MaxStrikes int
	// SpinBudget bounds a spin/residual-spin loop before the waiter gives
	// up and parks (the external bound on a wrong "short" prediction).
	// Default 30µs worth of spinning.
	SpinBudget time.Duration
	// TreeRadix, when >= 2, checks arrivals in through an MCS-style static
	// combining tree instead of one central counter: waiters increment a
	// cache-line-padded leaf counter (at most TreeRadix parties share a
	// leaf), a leaf's last arriver propagates one token to its parent, and
	// the waiter that fills the root releases the barrier. Contention per
	// cache line is bounded by the radix, so arrival scales to large party
	// counts where the central counter's CAS retries collapse. Prediction,
	// tier selection, cut-off and broken-barrier semantics are unchanged.
	// Values below 2, or trees that would collapse to a single leaf, use
	// the central counter. Default 0 (central counter).
	TreeRadix int
	// OnStall, when non-nil, arms a stall watchdog: if a generation stays
	// open longer than StallMultiple times the site's predicted interval
	// (floored at StallFloor), OnStall is invoked once for that generation
	// with a snapshot of who arrived. The callback runs on the watchdog
	// timer's goroutine, must not call back into the barrier, and is
	// diagnostic only — it does not break the generation (a deserted
	// participant may still arrive; call Reset to give up on it).
	OnStall func(StallInfo)
	// StallMultiple scales the predicted interval into the watchdog
	// deadline. Default 8.
	StallMultiple float64
	// StallFloor is the minimum watchdog deadline, covering warm-up
	// generations with no prediction yet. Default 1s.
	StallFloor time.Duration
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

// StallInfo is the watchdog's report of a generation that exceeded its
// deadline: which call site the generation belongs to, how many of the
// parties made it, and how long the generation has been open.
type StallInfo struct {
	// Generation is the stalled generation's index (the barrier's release
	// count when it opened).
	Generation uint64
	// Site is the prediction key of the generation's first arriver — the
	// call site that is stalled.
	Site uintptr
	// Arrived and Parties report the head count: Parties-Arrived
	// participants are missing.
	Arrived, Parties int
	// Waited is how long the generation has been open (since the first
	// arrival).
	Waited time.Duration
	// PredictedBIT is the interval prediction the deadline was derived
	// from (zero during warm-up, when only StallFloor applies).
	PredictedBIT time.Duration
}

func (o *Options) fill() {
	if o.SpinThreshold == 0 {
		o.SpinThreshold = 20 * time.Microsecond
	}
	if o.YieldThreshold == 0 {
		o.YieldThreshold = 100 * time.Microsecond
	}
	if o.ParkMargin == 0 {
		o.ParkMargin = 50 * time.Microsecond
	}
	if o.TimedParkThreshold == 0 {
		o.TimedParkThreshold = 5 * time.Millisecond
	}
	if o.Cutoff == 0 {
		o.Cutoff = 0.10
	}
	if o.MaxStrikes == 0 {
		o.MaxStrikes = 2
	}
	if o.SpinBudget == 0 {
		o.SpinBudget = waiter.DefaultBudget
	}
	if o.StallMultiple == 0 {
		o.StallMultiple = 8
	}
	if o.StallFloor == 0 {
		o.StallFloor = time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// site is the prediction state of one barrier call site (the PC index).
// Every field is an atomic: sites are read and written on the lock-free
// arrival path, and Stats snapshots them concurrently.
type site struct {
	// bit is the last measured barrier interval in nanoseconds; values
	// <= 0 mean no valid prediction yet (the old valid flag, folded into
	// the sign).
	bit atomic.Int64
	// lastStall is the most recently observed wait duration at this site
	// in nanoseconds (0 = none yet, sub-nanosecond stalls round up to 1).
	// Tier selection clamps the interval-derived prediction with it: when
	// compute time is tiny, stall == BIT by construction, and without the
	// clamp the wait tier's own latency inflates BIT, which selects slower
	// tiers, which inflates BIT further (a positive feedback loop).
	lastStall atomic.Int64
	strikes   atomic.Int64
	disabled  atomic.Bool

	// Stats.
	waits      atomic.Uint64
	tiers      [numTiers]atomic.Uint64
	earlyWakes atomic.Uint64 // timer fired before release (residual spin)
	lateWakes  atomic.Uint64 // release beat the timer
	cutoffHits atomic.Uint64
	// parked accumulates wall time this site's waiters spent blocked in a
	// parking tier — CPU time freed for other work that a spin barrier
	// would have burned.
	parked atomic.Int64
}

// round is one barrier generation; its channel is closed at release or
// break (the external wake-up broadcast) and its done flag is the cheap
// spin target (a single atomic load per spin iteration instead of a
// channel select). A waiter woken through either must consult broken to
// tell a release from a break: the break path stores broken before done,
// so a waiter that observes done and then reads broken sees the truth.
type round struct {
	gen uint32 // must match the state word's generation field
	ch  chan struct{}
	// leafCh shards the external wake-up broadcast in tree topology: each
	// arrival leaf has its own channel, waiters park on the channel of the
	// leaf they checked in at, and the releaser closes the leaves one by
	// one before ch. This models the paper's invalidation fan-out to
	// sharers — the wake-up invalidations follow the same tree the
	// arrivals combined up — instead of one global close thundering every
	// party onto the releaser's processor at once. nil in central
	// topology; ch always closes last, so "<-rd.ch has returned" remains
	// the round-over signal for code that does not hold a leaf.
	leafCh []chan struct{}
	done   atomic.Bool
	broken atomic.Bool
	// coalesced publishes the round's shared internal wake-up (see
	// joinCoalesced in wake.go): waiters whose predicted releases
	// quantize to the same wheel tick share one broadcast-close entry
	// instead of arming one wheel entry each.
	coalesced atomic.Pointer[coalescedWake]
	// armed is the watchdog-arming claim: the first early arriver to win
	// the CAS arms the watchdog, so arming stays off the arrival word.
	armed atomic.Bool

	// Watchdog state, guarded by the barrier mutex. firstSite/openedAt
	// identify the generation for the OnStall report.
	watchdog  *time.Timer
	firstSite uintptr
	openedAt  time.Time
}

// The barrier's hot word packs the broken flag, the generation and the
// arrival count:
//
//	bit  63..32  generation (the sense: flipped by each release or Reset)
//	bit  31      broken flag
//	bits 30..0   arrival count (always 0 in tree topology)
//
// Packing all three makes every transition a single CAS whose failure
// modes are exact: an arrival cannot be counted into a generation that has
// released, broken, or been Reset, because any of those changes the word.
const brokenBit = uint64(1) << 31

func packState(gen uint32, count int) uint64 {
	return uint64(gen)<<32 | uint64(uint32(count))
}

func stateGen(st uint64) uint32 { return uint32(st >> 32) }
func stateCount(st uint64) int  { return int(uint32(st) &^ uint32(brokenBit)) }

// Barrier is a reusable barrier for a fixed number of goroutines with an
// adaptive, prediction-driven wait policy. It must not be copied after
// first use (go vet's copylocks check enforces this).
type Barrier struct {
	noCopy noCopy //nolint:unused // vet copylocks marker

	parties int
	opts    Options
	tree    *arrivalTree // non-nil when Options.TreeRadix selects the tree

	// state is the arrival word (see packState); cur publishes the round
	// whose gen matches it. An arriver loads cur first, then state: a
	// successful arrival CAS with rd.gen == stateGen pins rd to the
	// generation it joined.
	state       atomic.Uint64
	cur         atomic.Pointer[round]
	lastRelease atomic.Pointer[time.Time] // nil = discard the next interval
	generation  atomic.Uint64             // releases completed
	breaks      atomic.Uint64
	stalls      atomic.Uint64

	sites sync.Map // uintptr -> *site

	// mu serializes the slow paths only — breaking a generation, Reset,
	// and watchdog arm/stop. The arrival fast path never takes it.
	mu sync.Mutex

	// spinnable records whether busy-waiting can ever make progress:
	// with GOMAXPROCS=1 a spinner just blocks the releaser until the
	// scheduler preempts it (the same condition sync.Mutex's spin guard
	// checks), so the spin tier degrades to yielding.
	spinnable bool
	// thresholds are Options' tier boundaries, gathered once for Select.
	thresholds waiter.Thresholds
}

// New creates a barrier for parties goroutines. It panics if parties < 1.
func New(parties int, opts Options) *Barrier {
	if parties < 1 {
		panic(fmt.Sprintf("thrifty: parties %d < 1", parties))
	}
	opts.fill()
	// lastRelease stays nil until the first release: the interval between
	// construction and the first episode absorbs arbitrary setup time and
	// must not seed the predictor, so the first measured BIT is discarded.
	b := &Barrier{
		parties:   parties,
		opts:      opts,
		spinnable: runtime.GOMAXPROCS(0) > 1,
		thresholds: waiter.Thresholds{
			Spin:      opts.SpinThreshold,
			Yield:     opts.YieldThreshold,
			TimedPark: opts.TimedParkThreshold,
		},
	}
	// The tree must exist before the first round: newRound sizes the
	// sharded broadcast channels off the leaf count.
	if opts.TreeRadix >= 2 {
		if t := newArrivalTree(parties, opts.TreeRadix); t != nil {
			b.tree = t
		}
	}
	b.cur.Store(b.newRound(0))
	return b
}

// newRound builds the round for generation gen, with one broadcast
// channel per arrival leaf in tree topology (see round.leafCh).
func (b *Barrier) newRound(gen uint32) *round {
	rd := &round{gen: gen, ch: make(chan struct{})}
	if b.tree != nil {
		rd.leafCh = make([]chan struct{}, b.tree.leaves())
		for i := range rd.leafCh {
			rd.leafCh[i] = make(chan struct{})
		}
	}
	return rd
}

// parkChan is the channel a waiter that arrived at leaf parks on: the
// leaf's shard of the broadcast, or the round channel in central topology
// (leaf < 0).
func (rd *round) parkChan(leaf int) chan struct{} {
	if leaf >= 0 && rd.leafCh != nil {
		return rd.leafCh[leaf]
	}
	return rd.ch
}

// closeRound broadcasts the external wake-up: the leaf shards first (each
// close wakes only that leaf's sharers), then the round channel, which
// always closes last so its closure means "every waiter has been
// signalled".
func closeRound(rd *round) {
	for _, ch := range rd.leafCh {
		close(ch)
	}
	close(rd.ch)
}

// Parties reports the number of participating goroutines.
func (b *Barrier) Parties() int { return b.parties }

// Generation reports how many times the barrier has been released.
func (b *Barrier) Generation() uint64 { return b.generation.Load() }

// Wait blocks until all parties have called Wait for the current
// generation. The prediction index is the caller's program counter, the
// direct analogue of the paper's PC-indexed table; SPMD-style code gets
// per-static-barrier prediction automatically.
//
// If the barrier is broken while waiting (another participant's context
// was cancelled, or Reset was called), Wait panics with ErrBroken: the
// error-free signature has no way to report a failed rendezvous, and
// proceeding silently would forfeit the barrier guarantee. Code that mixes
// in cancellable participants should use WaitContext throughout.
func (b *Barrier) Wait() {
	pc, _, _, _ := runtime.Caller(1)
	if err := b.waitSite(nil, uintptr(pc)); err != nil {
		panic(err)
	}
}

// WaitSite is Wait with an explicit prediction index, for callers that
// wrap the barrier (where runtime.Caller would smear distinct phases into
// one site) — the paper's §3.2 alternative of indexing by barrier
// structure address. Like Wait, it panics with ErrBroken if the barrier is
// broken.
func (b *Barrier) WaitSite(key uintptr) {
	if err := b.waitSite(nil, key); err != nil {
		panic(err)
	}
}

// WaitContext is Wait with cancellation. It blocks until all parties have
// arrived (returning nil), the barrier breaks (returning ErrBroken), or
// ctx is cancelled.
//
// Cancellation breaks the current generation: the cancelled waiter returns
// ctx.Err(), and every other participant — including ones already parked
// deep in a wait tier, which are woken through the round's broadcast
// channel — returns ErrBroken instead of hanging forever on a rendezvous
// that can no longer complete. The barrier stays broken (all Wait variants
// fail fast with ErrBroken) until Reset re-arms it. A ctx that is already
// cancelled on entry returns ctx.Err() without joining or breaking the
// generation.
func (b *Barrier) WaitContext(ctx context.Context) error {
	pc, _, _, _ := runtime.Caller(1)
	return b.waitSite(ctx, uintptr(pc))
}

// WaitSiteContext is WaitContext with an explicit prediction index.
func (b *Barrier) WaitSiteContext(ctx context.Context, key uintptr) error {
	return b.waitSite(ctx, key)
}

// site returns the prediction state for key, creating it on first use.
// The double lookup keeps the steady state (site exists) allocation-free:
// sync.Map.Load is a lock-free read, and LoadOrStore's &site{} allocation
// happens at most once per key per losing racer.
func (b *Barrier) site(key uintptr) *site {
	if v, ok := b.sites.Load(key); ok {
		return v.(*site)
	}
	v, _ := b.sites.LoadOrStore(key, &site{})
	return v.(*site)
}

// arrive joins the current generation without taking any lock. It returns
// the round joined, the arrival leaf (-1 in central topology — park on the
// round channel), and whether this caller was the last arriver (the
// releaser). It fails fast with ErrBroken when the generation is broken.
//
// The ordering argument: rd is loaded from cur BEFORE the arrival CAS, and
// the CAS only succeeds while stateGen still equals rd.gen — so a
// successful CAS proves rd is the round of the generation the arrival was
// counted into. Any concurrent release, break, or Reset changes the state
// word (generation bump or broken bit) and forces the CAS to fail and the
// loop to re-observe.
func (b *Barrier) arrive() (rd *round, leaf int, last bool, err error) {
	spins := 0
	for {
		rd = b.cur.Load()
		st := b.state.Load()
		if st&brokenBit != 0 {
			return nil, -1, false, ErrBroken
		}
		g := stateGen(st)
		if rd.gen != g {
			// A release or Reset has claimed the generation but not yet
			// published its round: wait out the publication window.
			if spins++; spins%64 == 0 {
				runtime.Gosched()
			}
			continue
		}
		if b.tree != nil {
			lf, root, ok := b.tree.checkIn(g)
			if !ok {
				// The tree observed a newer generation than g: our view is
				// stale; re-observe.
				if spins++; spins%64 == 0 {
					runtime.Gosched()
				}
				continue
			}
			if !root {
				return rd, lf, false, nil
			}
			// Filling the root makes this waiter the releaser: claim the
			// generation. The only competing transition is a break or
			// Reset (the root fills once per generation).
			for {
				st = b.state.Load()
				if st&brokenBit != 0 || stateGen(st) != g {
					return nil, -1, false, ErrBroken
				}
				if b.state.CompareAndSwap(st, packState(g+1, 0)) {
					return rd, lf, true, nil
				}
			}
		}
		if cnt := stateCount(st); cnt+1 == b.parties {
			// Last arriver: flip the sense. Success atomically ends the
			// generation; failure means a racing arrival, break, or Reset.
			if b.state.CompareAndSwap(st, packState(g+1, 0)) {
				return rd, -1, true, nil
			}
		} else if b.state.CompareAndSwap(st, st+1) {
			return rd, -1, false, nil
		}
	}
}

// finishRelease completes a release claimed in arrive: measure the
// interval, feed the predictor, publish the next round, and broadcast the
// external wake-up. The claim CAS already ended the generation, so
// everything here races only with observers.
func (b *Barrier) finishRelease(rd *round, s *site, now time.Time) {
	// Measure the release-to-release interval. A nil lastRelease marks an
	// interval that must be discarded: the construction-to-first-release
	// one, and any interval spanning a break or Reset.
	if prev := b.lastRelease.Load(); prev != nil && !s.disabled.Load() {
		s.bit.Store(int64(now.Sub(*prev)))
	}
	release := now
	b.lastRelease.Store(&release)
	b.generation.Add(1)
	// Publish the next round before waking the old one's waiters, so a
	// woken waiter that immediately re-arrives finds cur already in sync
	// with the state word.
	b.cur.Store(b.newRound(rd.gen + 1))
	rd.done.Store(true)
	closeRound(rd) // external wake-up broadcast (sharded per leaf in tree mode)
	b.stopWatchdog(rd)
}

// arrivalPlan is everything a waiter computes before it starts waiting:
// the round it joined, its site, and — for early arrivers — the stall
// prediction and the wait tier it implies.
type arrivalPlan struct {
	rd *round
	s  *site
	// parkCh is the external wake-up channel for this waiter: its arrival
	// leaf's shard of the broadcast, or rd.ch in central topology.
	parkCh           chan struct{}
	last             bool
	tier             Tier
	predictedStall   time.Duration
	predictedRelease time.Time
	havePred         bool
	bit              time.Duration
}

// beginWait is the arrival fast path: join the generation lock-free, sign
// in at the call site, and either complete the release (last arriver) or
// predict the stall and pick the sleep tier. It is the segment the
// tentpole optimisation replaced — BenchmarkBarrierArrival measures
// exactly this call — and it takes no lock on any path.
func (b *Barrier) beginWait(key uintptr) (arrivalPlan, error) {
	now := b.opts.Now()
	rd, leaf, last, err := b.arrive()
	if err != nil {
		return arrivalPlan{}, err
	}
	s := b.site(key)
	s.waits.Add(1)
	plan := arrivalPlan{rd: rd, s: s, parkCh: rd.parkChan(leaf), last: last}
	if last {
		b.finishRelease(rd, s, now)
		return plan, nil
	}
	if b.opts.OnStall != nil && rd.armed.CompareAndSwap(false, true) {
		b.armWatchdog(rd, s, key, now)
	}

	// Early arriver: predict the stall, clamp it, and pick a tier. All
	// inputs are atomics, so the prediction needs no lock; a release
	// racing these reads can at worst misplace one tier choice, never
	// correctness.
	if v := s.bit.Load(); v > 0 && !s.disabled.Load() {
		if prev := b.lastRelease.Load(); prev != nil {
			plan.bit = time.Duration(v)
			plan.predictedRelease = prev.Add(plan.bit)
			plan.predictedStall = plan.predictedRelease.Sub(now)
			plan.havePred = plan.predictedStall > 0
		}
	}
	if ls := s.lastStall.Load(); ls > 0 && plan.havePred {
		if clamp := 2 * time.Duration(ls); clamp < plan.predictedStall {
			plan.predictedStall = clamp
		}
	}
	plan.tier = b.selectTier(plan.predictedStall, plan.havePred)
	s.tiers[plan.tier].Add(1)
	return plan, nil
}

// waitSite is the shared wait path. A nil ctx never cancels (its done
// channel is nil, which no select case ever fires on), so the plain Wait
// forms pay no extra cost beyond a nil check per spin batch.
func (b *Barrier) waitSite(ctx context.Context, key uintptr) error {
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			// Cancelled before arrival: the caller never joined this
			// generation, so there is nothing to break.
			return err
		}
		done = ctx.Done()
	}

	plan, err := b.beginWait(key)
	if err != nil {
		return err
	}
	if plan.last {
		return nil
	}
	rd, s, parkCh := plan.rd, plan.s, plan.parkCh
	tier := plan.tier
	predictedRelease, bit := plan.predictedRelease, plan.bit

	w := waiter.Wait{
		Done:      &rd.done,
		Release:   parkCh,
		Cancel:    done,
		Budget:    b.opts.SpinBudget,
		Spinnable: b.spinnable,
		Now:       b.opts.Now,
	}
	waitStart := b.opts.Now()
	var out waitOutcome
	var o waiter.Outcome
	if tier == TierTimedPark {
		out, o = b.timedPark(rd, &w, predictedRelease)
	} else {
		o = w.Run(tier, 0)
	}
	end := b.opts.Now()
	stall := end.Sub(waitStart)

	if o == waiter.Cancelled {
		if released := b.breakRound(rd); !released {
			return ctx.Err()
		}
		// The release won the race against the cancellation: this waiter
		// completed the rendezvous, so it reports success and its sample
		// feeds the predictor like any other wait.
	} else if rd.broken.Load() {
		// Woken by a break, not a release: no stall sample, no cut-off
		// verdict — a broken generation measures nothing.
		return ErrBroken
	}

	// Post-wait bookkeeping: the stall sample, parked-time accounting,
	// wake counters and the cut-off verdict, all on site atomics.
	if v := int64(stall); v > 0 {
		s.lastStall.Store(v)
	} else {
		s.lastStall.Store(1) // a measured-zero stall still counts as a sample
	}
	// The parking tiers free the processor and face the cut-off.
	parking := tier >= TierTimedPark
	if parking && stall > 0 {
		s.parked.Add(int64(stall))
	}
	if out.earlyWake {
		s.earlyWakes.Add(1)
	}
	if out.lateWake {
		s.lateWakes.Add(1)
	}
	if parking {
		b.applyCutoff(s, predictedRelease, end, bit)
	}
	return nil
}

// breakRound breaks rd's generation on behalf of a cancelled waiter. It
// reports true if rd had in fact already been released (the cancellation
// lost the race and the waiter completed normally). Otherwise the
// generation is marked broken — waking every parked waiter through the
// round channel — unless another waiter broke it first.
func (b *Barrier) breakRound(rd *round) (released bool) {
	b.mu.Lock()
	if rd.broken.Load() {
		b.mu.Unlock()
		return false
	}
	if rd.done.Load() {
		b.mu.Unlock()
		return true
	}
	for {
		st := b.state.Load()
		if stateGen(st) != rd.gen {
			// Only a release moves the generation on from an unbroken
			// round (Reset marks it broken first, and we hold b.mu).
			b.mu.Unlock()
			return true
		}
		// Setting the broken bit in the state word is what makes the
		// break atomic against the lock-free paths: a release claim or an
		// arrival CAS racing us either beat this CAS (we retry and
		// re-check the generation) or fail on the changed word and
		// observe the broken bit.
		if b.state.CompareAndSwap(st, st|brokenBit) {
			break
		}
	}
	rd.broken.Store(true)
	rd.done.Store(true) // after broken: spin-woken waiters re-check broken
	b.breaks.Add(1)
	// Clear the stale release timestamp so the first interval measured
	// after Reset is discarded (it would span the broken period, poisoning
	// the predictor exactly like the construction-to-first-release one).
	b.lastRelease.Store(nil)
	b.stopWatchdogLocked(rd)
	b.mu.Unlock()
	closeRound(rd)
	return false
}

// Reset re-arms the barrier: if the current generation has blocked waiters
// (or is already broken), they are woken with ErrBroken, and a fresh
// generation is installed. Use it to recover after a break, or to abandon
// a generation whose missing participant will never arrive (e.g. after the
// stall watchdog fired).
func (b *Barrier) Reset() {
	b.mu.Lock()
	rd := b.cur.Load()
	for {
		st := b.state.Load()
		if stateGen(st) != rd.gen {
			// A release claimed the generation and is publishing the next
			// round: the barrier is already freshly armed, so there is
			// nothing to tear down. Still discard the interval spanning
			// the Reset, like the construction interval.
			b.lastRelease.Store(nil)
			b.mu.Unlock()
			return
		}
		wasBroken := st&brokenBit != 0
		arrived := stateCount(st)
		if b.tree != nil {
			arrived = b.tree.arrived(rd.gen)
		}
		if !b.state.CompareAndSwap(st, packState(rd.gen+1, 0)) {
			continue
		}
		b.cur.Store(b.newRound(rd.gen + 1))
		// In tree topology an arrival may have checked in between the
		// count snapshot and the CAS, so the round is always closed out;
		// with the central counter the CAS makes the count exact.
		needClose := !wasBroken && (arrived > 0 || b.tree != nil)
		if needClose {
			rd.broken.Store(true)
			rd.done.Store(true)
			if arrived > 0 {
				b.breaks.Add(1)
			}
		}
		b.lastRelease.Store(nil)
		b.stopWatchdogLocked(rd)
		b.mu.Unlock()
		if needClose {
			closeRound(rd)
		}
		return
	}
}

// Broken reports whether the current generation is broken (and Reset has
// not yet re-armed the barrier).
func (b *Barrier) Broken() bool {
	return b.cur.Load().broken.Load()
}

// armWatchdog schedules the stall check for a newly opened generation:
// the deadline is StallMultiple x the site's predicted interval, floored
// at StallFloor. Called by the early arriver that won the round's arming
// CAS.
func (b *Barrier) armWatchdog(rd *round, s *site, key uintptr, now time.Time) {
	d := b.opts.StallFloor
	var bit time.Duration
	if v := s.bit.Load(); v > 0 && !s.disabled.Load() {
		bit = time.Duration(v)
		if m := time.Duration(b.opts.StallMultiple * float64(bit)); m > d {
			d = m
		}
	}
	gen := b.generation.Load()
	b.mu.Lock()
	defer b.mu.Unlock()
	if rd.done.Load() || rd.broken.Load() {
		// The generation ended between arrival and arming: the releaser
		// or breaker already ran its watchdog stop, so arming now would
		// leak a timer for a closed round.
		return
	}
	rd.firstSite, rd.openedAt = key, now
	rd.watchdog = time.AfterFunc(d, func() { b.stallCheck(rd, gen, bit) })
}

// stopWatchdog cancels rd's watchdog at release. The armed fast check
// keeps the common unarmed case (OnStall unset, or this round's arming CAS
// not yet won) off the mutex.
func (b *Barrier) stopWatchdog(rd *round) {
	if b.opts.OnStall == nil || !rd.armed.Load() {
		return
	}
	b.mu.Lock()
	b.stopWatchdogLocked(rd)
	b.mu.Unlock()
}

func (b *Barrier) stopWatchdogLocked(rd *round) {
	if rd.watchdog != nil {
		rd.watchdog.Stop()
		rd.watchdog = nil
	}
}

// stallCheck runs when a generation's watchdog deadline expires: if the
// generation is still open (neither released nor broken), it reports the
// stall. The callback is invoked without holding the barrier lock.
func (b *Barrier) stallCheck(rd *round, gen uint64, bit time.Duration) {
	st := b.state.Load()
	if st&brokenBit != 0 || stateGen(st) != rd.gen {
		return
	}
	arrived := stateCount(st)
	if b.tree != nil {
		arrived = b.tree.arrived(rd.gen)
	}
	b.mu.Lock()
	if rd.done.Load() || rd.broken.Load() {
		b.mu.Unlock()
		return
	}
	info := StallInfo{
		Generation:   gen,
		Site:         rd.firstSite,
		Arrived:      arrived,
		Parties:      b.parties,
		Waited:       b.opts.Now().Sub(rd.openedAt),
		PredictedBIT: bit,
	}
	b.stalls.Add(1)
	b.mu.Unlock()
	b.opts.OnStall(info)
}

// waitOutcome is how a timed park resolved, reported back so that all
// post-wait bookkeeping folds into one place.
type waitOutcome struct {
	earlyWake bool // the internal wake-up fired first (residual spin)
	lateWake  bool // the release beat the armed internal wake-up
}

// selectTier is the sleep() best-fit scan (§3.1) over the wait tiers.
// Without a prediction (warm-up, or a site cut off) it keeps the
// conventional behaviour: a bounded spin then park, the usual
// adaptive-mutex policy. Where spinning cannot make progress the spin
// tier degrades to yielding.
func (b *Barrier) selectTier(stall time.Duration, havePred bool) Tier {
	t := waiter.Select(stall, havePred, TierSpin, b.thresholds)
	if t == TierSpin && !b.spinnable {
		return TierYield
	}
	return t
}

// applyCutoff applies the §3.3.3 overprediction threshold: if the predicted
// release is later than the actual one by more than Cutoff x BIT, strike
// the site; MaxStrikes strikes disable prediction there. Only
// OVERprediction may strike — an oversleeping waiter lands its wake latency
// on the critical path, which is the failure mode the cut-off exists to
// bound. Underprediction (actual release later than predicted) costs at
// most a bounded residual spin under the hybrid wake-up and must never
// disable a site.
func (b *Barrier) applyCutoff(s *site, predictedRelease, actual time.Time, bit time.Duration) {
	if bit <= 0 || predictedRelease.IsZero() {
		return
	}
	over := predictedRelease.Sub(actual)
	if over <= 0 {
		return // underprediction: never a strike
	}
	if float64(over) <= b.opts.Cutoff*float64(bit) {
		return
	}
	s.cutoffHits.Add(1)
	if s.strikes.Add(1) >= int64(b.opts.MaxStrikes) {
		s.disabled.Store(true)
	}
}

// SiteStats is a snapshot of one call site's behaviour.
type SiteStats struct {
	Key        uintptr
	Waits      uint64
	Tiers      [4]uint64 // indexed by Tier
	EarlyWakes uint64
	LateWakes  uint64
	CutoffHits uint64
	Disabled   bool
	LastBIT    time.Duration
	// Parked is the wall time waiters spent blocked instead of spinning —
	// the CPU time this barrier freed at this site.
	Parked time.Duration
}

// Stats is a snapshot of the barrier's behaviour.
type Stats struct {
	Generation uint64
	// Breaks counts generations that ended broken — by a cancelled
	// participant or by Reset — instead of releasing.
	Breaks uint64
	// Stalls counts stall-watchdog firings (OnStall invocations).
	Stalls uint64
	Sites  []SiteStats
}

// Stats returns a snapshot of predictor and tier statistics. Each counter
// is read atomically; the snapshot as a whole is not a cross-counter
// linearization (a concurrent wait may land between two reads), which is
// fine for the telemetry it feeds.
func (b *Barrier) Stats() Stats {
	out := Stats{
		Generation: b.generation.Load(),
		Breaks:     b.breaks.Load(),
		Stalls:     b.stalls.Load(),
	}
	b.sites.Range(func(k, v any) bool {
		s := v.(*site)
		bit := s.bit.Load()
		if bit < 0 {
			bit = 0
		}
		ss := SiteStats{
			Key:        k.(uintptr),
			Waits:      s.waits.Load(),
			EarlyWakes: s.earlyWakes.Load(),
			LateWakes:  s.lateWakes.Load(),
			CutoffHits: s.cutoffHits.Load(),
			Disabled:   s.disabled.Load(),
			LastBIT:    time.Duration(bit),
			Parked:     time.Duration(s.parked.Load()),
		}
		for i := range s.tiers {
			ss.Tiers[i] = s.tiers[i].Load()
		}
		out.Sites = append(out.Sites, ss)
		return true
	})
	return out
}
