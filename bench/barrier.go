package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"thriftybarrier/internal/remote"
	"thriftybarrier/internal/wheel"
	"thriftybarrier/thrifty"
	"thriftybarrier/thrifty/client"
)

// parkIntervals are barrier-park's four call sites: stable intervals that
// put waits in the timed-park tier, on the wake-up wheel.
var parkIntervals = []time.Duration{400 * time.Microsecond, 800 * time.Microsecond, 1600 * time.Microsecond, 3200 * time.Microsecond}

// barrierRounds is a round workload on the goroutine barrier.
//
// A run measures a fresh, trained barrier every segment rather than one
// barrier throughout. On a host that preempts the straggler now and then,
// each preemption longer than a tenth of an interval strikes that site
// under the §3.3.3 cut-off, and strikes never expire, so one barrier drifts
// into having every site cut off within some tens of seconds (README.md,
// "Third finding"). A long-lived barrier would make the tier mix, and
// every latency with it, depend on how far into that drift a run happens
// to be.
type barrierRounds struct {
	cfg  *config
	ro   *rounds
	bar  *thrifty.Barrier
	warm int64 // training rounds of a fresh barrier
}

// segment is how long one barrier is measured.
const segment = time.Second

// setupBarrierSpin: one call site with intervals of 2–15 µs, all below
// the spin threshold, so almost every wait spins and the wheel is
// bypassed.
func setupBarrierSpin(cfg *config, l *ledger) (instance, error) {
	intervals := intervalTable(cfg.seed, []time.Duration{8500 * time.Nanosecond}, 6.5/8.5)
	return newBarrierRounds(cfg, l, intervals, 1, 256), nil
}

// setupBarrierPark: the four parkIntervals sites, ±4%. Consecutive
// intervals of a site then differ by at most 8%, inside the cut-off's 10%,
// so the input alone never strikes a site.
func setupBarrierPark(cfg *config, l *ledger) (instance, error) {
	intervals := intervalTable(cfg.seed, parkIntervals, 0.04)
	return newBarrierRounds(cfg, l, intervals, len(parkIntervals), 8*int64(len(parkIntervals))), nil
}

// newBarrierRounds builds a barrier and trains it: the set-up every
// segment of a run repeats.
func newBarrierRounds(cfg *config, l *ledger, intervals []time.Duration, sites int, warm int64) *barrierRounds {
	b := &barrierRounds{cfg: cfg, warm: warm}
	b.ro = &rounds{
		parties:   cfg.parties(),
		sites:     sites,
		intervals: intervals,
		seed:      cfg.seed,
		l:         l,
		waitSpan:  "thrifty.Barrier.WaitSiteContext",
		wait: func(ctx context.Context, _, site int) error {
			return b.bar.WaitSiteContext(ctx, uintptr(site+1))
		},
	}
	b.fresh()
	return b
}

// fresh replaces the barrier with a new one and trains its predictor.
func (b *barrierRounds) fresh() {
	b.bar = thrifty.New(b.cfg.parties(), thrifty.Options{})
	b.ro.phase(0, b.warm, nil, -1)
}

func (b *barrierRounds) measure(d time.Duration, tr *tracer, parent int) measurement {
	segments := int((d + segment - 1) / segment)
	m := measurement{tailQ: 0.99}
	var tiers [4]float64
	var total, early, cutoffs, disabled float64
	var rounds int64
	var wheelSum wheel.Stats // the wheel's counters over the measured phases
	b.ro.takeSamples()
	for i := 0; i < segments; i++ {
		b.fresh()
		s0, g0, w0 := b.bar.Stats(), b.bar.Generation(), wheel.Default().Stats()
		res := b.ro.phase(d/time.Duration(segments), 0, tr, parent)
		s1, w1 := b.bar.Stats(), wheel.Default().Stats()
		wheelSum.Fired += w1.Fired - w0.Fired
		wheelSum.Cancelled += w1.Cancelled - w0.Cancelled
		wheelSum.Steals += w1.Steals - w0.Steals
		if gens := int64(b.bar.Generation() - g0); !b.bar.Broken() && gens != res.rounds {
			b.ro.l.mismatch("barrier released %d generations in %d rounds", gens, res.rounds)
		}
		if s1.Breaks != 0 {
			b.ro.l.mismatch("barrier broke %d times", s1.Breaks)
		}
		trained := make(map[uintptr]thrifty.SiteStats, len(s0.Sites))
		for _, s := range s0.Sites {
			trained[s.Key] = s
		}
		for _, s := range s1.Sites {
			prev := trained[s.Key]
			for t := range tiers {
				n := float64(s.Tiers[t] - prev.Tiers[t])
				tiers[t] += n
				total += n
			}
			early += float64(s.EarlyWakes - prev.EarlyWakes)
			cutoffs += float64(s.CutoffHits - prev.CutoffHits)
			if s.Disabled {
				disabled++
			}
		}
		rounds += res.rounds
		m.wall += res.wall
		m.cpu += res.cpu
	}
	m.lat = b.ro.takeSamples()
	m.ops = float64(rounds)
	m.layers = wheelLayers(wheel.Stats{}, wheelSum, rounds)
	for t := range tiers {
		m.layers["thrifty.tier_frac."+thrifty.Tier(t).String()] = ratio(tiers[t], total)
	}
	m.layers["thrifty.disabled_sites"] = disabled / float64(segments)
	m.layers["thrifty.cutoff_hits_per_kround"] = 1000 * ratio(cutoffs, float64(rounds))
	m.layers["thrifty.early_wake_frac"] = ratio(early, tiers[thrifty.TierTimedPark])
	return m
}

func (b *barrierRounds) close() {}

// thriftydRounds is the round workload on the thriftyd service: a
// remote.Server on an in-memory pipe listener and one client.Client per
// party, one barrier name per site, with barrier-park's intervals doubled.
type thriftydRounds struct {
	ro      *rounds
	srv     *remote.Server
	served  chan error
	clients []*client.Client
}

func setupThriftyd(cfg *config, l *ledger) (instance, error) {
	srv := remote.NewServer(remote.Options{})
	ln := remote.NewPipeListener()
	t := &thriftydRounds{srv: srv, served: make(chan error, 1)}
	go func() { t.served <- srv.Serve(ln) }()
	bases := make([]time.Duration, len(parkIntervals))
	names := make([]string, len(parkIntervals))
	for i, iv := range parkIntervals {
		bases[i] = 2 * iv
		names[i] = fmt.Sprintf("site-%d", i)
	}
	parties := cfg.parties()
	for p := 0; p < parties; p++ {
		c, err := client.New(client.Options{Dial: ln.Dial, ClientID: fmt.Sprintf("bench-%d", p), Seed: cfg.seed})
		if err != nil {
			t.close()
			return nil, err
		}
		t.clients = append(t.clients, c)
	}
	t.ro = &rounds{
		parties:   parties,
		sites:     len(names),
		intervals: intervalTable(cfg.seed, bases, 0.05),
		seed:      cfg.seed,
		l:         l,
		waitSpan:  "client.Client.Wait",
		wait: func(ctx context.Context, p, site int) error {
			return t.clients[p].Wait(ctx, names[site], parties)
		},
		// The straggler arrives only once the server has counted every
		// peer. Without this handshake the server deadlocks about once in
		// seven runs (README.md, "First finding"): an arrival that read
		// its clock before a peer's but took the barrier lock after it
		// releases the epoch with a negative interval, and the predictor's
		// panic leaves the lock held.
		beforeLast: func(ctx context.Context, site int) error {
			for {
				for _, row := range srv.Snapshot() {
					if row.Name == names[site] && int(row.Arrived) >= parties-1 {
						return nil
					}
				}
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("peers never registered at %s: %w", names[site], err)
				}
				runtime.Gosched()
			}
		},
	}
	// Warm-up: the first dial of every client and eight epochs per
	// barrier name to train the server's predictor.
	t.ro.phase(0, 8*int64(len(names)), nil, -1)
	return t, nil
}

func (t *thriftydRounds) measure(d time.Duration, tr *tracer, parent int) measurement {
	w0, r0 := wheel.Default().Stats(), t.srv.Stats()
	t.ro.takeSamples()
	res := t.ro.phase(d, 0, tr, parent)
	w1, r1 := wheel.Default().Stats(), t.srv.Stats()
	if t.ro.l.failed.Load() == 0 && int64(r1.Releases-r0.Releases) != res.rounds {
		t.ro.l.mismatch("server released %d epochs in %d rounds", r1.Releases-r0.Releases, res.rounds)
	}
	if r1.Breaks != r0.Breaks {
		t.ro.l.mismatch("server broke %d epochs", r1.Breaks-r0.Breaks)
	}
	layers := wheelLayers(w0, w1, res.rounds)
	layers["remote.dup_registrations_per_round"] = perRound(r1.DupRegistrations-r0.DupRegistrations, res.rounds)
	layers["remote.replays_per_round"] = perRound(r1.Replays-r0.Replays, res.rounds)
	layers["remote.shed_per_round"] = perRound(r1.Shed-r0.Shed, res.rounds)
	layers["remote.bad_frames"] = float64(r1.BadFrames)
	return measurement{ops: float64(res.rounds), wall: res.wall, cpu: res.cpu, lat: t.ro.takeSamples(), tailQ: 0.99, layers: layers}
}

func (t *thriftydRounds) close() {
	for _, c := range t.clients {
		c.Close()
	}
	t.srv.Close()
	<-t.served
}

// wheelLayers are the wake-up wheel's per-round counters over a phase.
func wheelLayers(w0, w1 wheel.Stats, rounds int64) map[string]float64 {
	return map[string]float64{
		"wheel.fired_per_round":     perRound(w1.Fired-w0.Fired, rounds),
		"wheel.cancelled_per_round": perRound(w1.Cancelled-w0.Cancelled, rounds),
		"wheel.steals_per_round":    perRound(w1.Steals-w0.Steals, rounds),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
