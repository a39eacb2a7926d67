// Package fault provides a seeded, deterministic fault-injection plan for
// the simulated machine's wake-up and scheduling paths: lost external
// wake-up invalidations, internal-timer drift and failure, preemption
// storms, and node stalls — the §3.3/§3.4 failure narrative of the paper
// turned into an executable experiment.
//
// Every decision is a pure function of (seed, fault kind, phase, thread):
// no mutable state, no draw ordering. Two runs with the same plan make
// identical decisions regardless of goroutine scheduling or worker-pool
// width, which is what keeps the bench artifacts byte-identical across -j
// and lets a chaos test replay the exact failure it found.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"thriftybarrier/internal/sim"
)

// DefaultRecovery is the OS-watchdog timeout that rescues a sleeper which
// lost every wake-up channel. It stands in for the paper's "unbounded"
// lateness: large enough to dominate any barrier interval, finite so runs
// terminate and the damage is measurable.
const DefaultRecovery = 50 * sim.Millisecond

// Plan describes which faults to inject and how often. The zero value (or
// a nil *Plan) injects nothing; every accessor is nil-safe so the machine
// can consult the plan unconditionally on its hot paths.
type Plan struct {
	// Seed decorrelates the plan's decisions from the workload's own
	// randomness. Two plans with different seeds fault different
	// (phase, thread) pairs at the same rates.
	Seed uint64

	// DropWakeup is the probability that a sleeper's external wake-up is
	// lost: the flag-flip invalidation reaches the node but its cache
	// controller never wakes the CPU (§3.3.1's lost-signal case). Under
	// hybrid wake-up the internal timer bounds the damage; under
	// external-only wake-up the sleeper is stranded until Recovery.
	DropWakeup float64

	// TimerFail is the probability that an armed internal timer never
	// fires (§3.3.2's timer-failure case). Under hybrid wake-up the
	// invalidation bounds the damage; under internal-only wake-up the
	// sleeper is stranded until Recovery.
	TimerFail float64

	// DriftRate is the probability that an internal timer drifts: it
	// fires Drift cycles later than programmed, modeling a slow or
	// miscalibrated countdown clock.
	DriftRate float64
	// Drift is the lateness added to a drifted timer.
	Drift sim.Cycles

	// PreemptRate is the per-(phase, thread) probability of an injected
	// OS preemption of PreemptDelay before reaching the barrier — the
	// §3.4.2 preemption storm.
	PreemptRate float64
	// PreemptDelay is the injected preemption length.
	PreemptDelay sim.Cycles

	// StallRate is the per-(phase, thread) probability of a long node
	// stall of StallDelay (page fault, I/O, NUMA hiccup): rare but large
	// interval inflations that stress the underprediction filter.
	StallRate float64
	// StallDelay is the injected stall length.
	StallDelay sim.Cycles

	// Recovery overrides DefaultRecovery: the timeout after which a
	// sleeper with no live wake-up channel is revived by the OS watchdog.
	Recovery sim.Cycles
}

// Fault kinds salt the hash so the same (phase, thread) pair draws
// independently for each decision.
const (
	kindDrop uint64 = iota + 1
	kindTimerFail
	kindDrift
	kindPreempt
	kindStall
)

// roll returns a uniform [0,1) variate that is a pure function of
// (seed, kind, phase, thread) — the shared SplitMix64 finalizer
// (source.go) over the mixed key. The mixing sequence is pinned: the
// committed ablation artifacts under results/ replay these exact
// decisions, so any change here would silently invalidate them.
func (p *Plan) roll(kind uint64, phase, thread int) float64 {
	z := p.Seed ^ kind*0x9E3779B97F4A7C15
	z ^= (uint64(phase) + 1) * 0xBF58476D1CE4E5B9
	z ^= (uint64(thread) + 1) * 0x94D049BB133111EB
	return unit(finalize64(z))
}

// Active reports whether the plan injects any fault at all.
func (p *Plan) Active() bool {
	return p != nil && (p.DropWakeup > 0 || p.TimerFail > 0 || p.DriftRate > 0 ||
		p.PreemptRate > 0 || p.StallRate > 0)
}

// DropWakeupAt decides whether thread's external wake-up is lost in phase.
func (p *Plan) DropWakeupAt(phase, thread int) bool {
	if p == nil || p.DropWakeup <= 0 {
		return false
	}
	return p.roll(kindDrop, phase, thread) < p.DropWakeup
}

// TimerFailsAt decides whether thread's internal timer fails in phase.
func (p *Plan) TimerFailsAt(phase, thread int) bool {
	if p == nil || p.TimerFail <= 0 {
		return false
	}
	return p.roll(kindTimerFail, phase, thread) < p.TimerFail
}

// TimerDriftAt returns the lateness of thread's internal timer in phase
// (zero when the timer is on time).
func (p *Plan) TimerDriftAt(phase, thread int) sim.Cycles {
	if p == nil || p.DriftRate <= 0 || p.Drift <= 0 {
		return 0
	}
	if p.roll(kindDrift, phase, thread) < p.DriftRate {
		return p.Drift
	}
	return 0
}

// PreemptAt returns the injected preemption delay for thread in phase.
func (p *Plan) PreemptAt(phase, thread int) (sim.Cycles, bool) {
	if p == nil || p.PreemptRate <= 0 || p.PreemptDelay <= 0 {
		return 0, false
	}
	if p.roll(kindPreempt, phase, thread) < p.PreemptRate {
		return p.PreemptDelay, true
	}
	return 0, false
}

// StallAt returns the injected node-stall delay for thread in phase.
func (p *Plan) StallAt(phase, thread int) (sim.Cycles, bool) {
	if p == nil || p.StallRate <= 0 || p.StallDelay <= 0 {
		return 0, false
	}
	if p.roll(kindStall, phase, thread) < p.StallRate {
		return p.StallDelay, true
	}
	return 0, false
}

// RecoveryTimeout returns the stranded-sleeper rescue timeout.
func (p *Plan) RecoveryTimeout() sim.Cycles {
	if p == nil || p.Recovery <= 0 {
		return DefaultRecovery
	}
	return p.Recovery
}

// Validate reports an error for a malformed plan.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"drop", p.DropWakeup}, {"timerfail", p.TimerFail}, {"driftrate", p.DriftRate},
		{"preempt", p.PreemptRate}, {"stall", p.StallRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	for _, d := range []struct {
		name string
		v    sim.Cycles
	}{
		{"drift", p.Drift}, {"preemptdelay", p.PreemptDelay},
		{"stalldelay", p.StallDelay}, {"recovery", p.Recovery},
	} {
		if d.v < 0 {
			return fmt.Errorf("fault: negative %s %v", d.name, d.v)
		}
	}
	if p.DriftRate > 0 && p.Drift == 0 {
		return fmt.Errorf("fault: driftrate set without a drift duration")
	}
	if p.PreemptRate > 0 && p.PreemptDelay == 0 {
		return fmt.Errorf("fault: preempt rate set without preemptdelay")
	}
	if p.StallRate > 0 && p.StallDelay == 0 {
		return fmt.Errorf("fault: stall rate set without stalldelay")
	}
	return nil
}

// String renders the plan in Parse's syntax (keys in fixed order), for
// labels and logs. A nil or inactive plan renders as "none".
func (p *Plan) String() string {
	if !p.Active() {
		return "none"
	}
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", p.DropWakeup)
	add("timerfail", p.TimerFail)
	add("driftrate", p.DriftRate)
	if p.Drift > 0 {
		parts = append(parts, "drift="+p.Drift.Duration().String())
	}
	add("preempt", p.PreemptRate)
	if p.PreemptDelay > 0 {
		parts = append(parts, "preemptdelay="+p.PreemptDelay.Duration().String())
	}
	add("stall", p.StallRate)
	if p.StallDelay > 0 {
		parts = append(parts, "stalldelay="+p.StallDelay.Duration().String())
	}
	if p.Recovery > 0 {
		parts = append(parts, "recovery="+p.Recovery.Duration().String())
	}
	if p.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatUint(p.Seed, 10))
	}
	return strings.Join(parts, ",")
}

// parseKeys maps Parse's spec keys to setters, so the error message for an
// unknown key can list what is accepted.
var parseKeys = map[string]func(*Plan, string) error{
	"drop":         func(p *Plan, v string) error { return parseRate(v, &p.DropWakeup) },
	"timerfail":    func(p *Plan, v string) error { return parseRate(v, &p.TimerFail) },
	"driftrate":    func(p *Plan, v string) error { return parseRate(v, &p.DriftRate) },
	"drift":        func(p *Plan, v string) error { return parseCycles(v, &p.Drift) },
	"preempt":      func(p *Plan, v string) error { return parseRate(v, &p.PreemptRate) },
	"preemptdelay": func(p *Plan, v string) error { return parseCycles(v, &p.PreemptDelay) },
	"stall":        func(p *Plan, v string) error { return parseRate(v, &p.StallRate) },
	"stalldelay":   func(p *Plan, v string) error { return parseCycles(v, &p.StallDelay) },
	"recovery":     func(p *Plan, v string) error { return parseCycles(v, &p.Recovery) },
	"seed": func(p *Plan, v string) error {
		s, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", v)
		}
		p.Seed = s
		return nil
	},
}

// KnownKeys lists Parse's accepted keys, sorted — for usage diagnostics.
func KnownKeys() []string {
	keys := make([]string, 0, len(parseKeys))
	for k := range parseKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Parse builds a plan from a comma-separated key=value spec, e.g.
//
//	drop=0.2,timerfail=0.1,drift=200us,driftrate=0.5,recovery=100ms,seed=7
//
// Rates are fractions in [0,1]; durations use time.ParseDuration syntax
// and convert at the machine's 1 GHz nominal frequency. An empty spec
// returns a nil plan (no faults).
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	p := &Plan{}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not key=value", kv)
		}
		set, known := parseKeys[strings.TrimSpace(k)]
		if !known {
			return nil, fmt.Errorf("fault: unknown key %q (want %s)", k, strings.Join(KnownKeys(), "|"))
		}
		if err := set(p, strings.TrimSpace(v)); err != nil {
			return nil, fmt.Errorf("fault: %w", err)
		}
	}
	// Delays for enabled fault classes default sensibly so a bare rate
	// ("preempt=0.01") is a usable spec.
	if p.DriftRate > 0 && p.Drift == 0 {
		p.Drift = 200 * sim.Microsecond
	}
	if p.PreemptRate > 0 && p.PreemptDelay == 0 {
		p.PreemptDelay = 5 * sim.Millisecond
	}
	if p.StallRate > 0 && p.StallDelay == 0 {
		p.StallDelay = 20 * sim.Millisecond
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseRate(v string, dst *float64) error {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 || f > 1 {
		return fmt.Errorf("bad rate %q (want a fraction in [0,1])", v)
	}
	*dst = f
	return nil
}

func parseCycles(v string, dst *sim.Cycles) error {
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return fmt.Errorf("bad duration %q", v)
	}
	*dst = sim.FromDuration(d)
	return nil
}
