package core

import (
	"testing"
	"testing/quick"

	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/sim"
)

// Property: across random small programs and every configuration, barrier
// semantics hold (no departure before its release; no arrival at phase k+1
// before the last departure of phase k for the same thread) and the
// energy/time accounting has no holes (per-CPU accounted time covers at
// least 90% of the span).
func TestBarrierSemanticsProperty(t *testing.T) {
	arch := testArch()
	configs := []Options{Baseline(), ThriftyHalt(), Thrifty(), Ideal(), SpinThenHalt(), UnconditionalHalt()}
	f := func(seed uint16, phasesRaw, imbalRaw uint8) bool {
		phases := int(phasesRaw%6) + 2
		imbal := int64(imbalRaw) * 4_000 // 0..1.02M extra instructions
		rng := sim.NewRNG(uint64(seed) + 1)
		prog := UniformProgram(0x100, phases, func(instance, thread int) cpu.Segment {
			insns := int64(80_000) + rng.Split(uint64(instance*64+thread)).Int63n(20_000)
			if thread == instance%8 {
				insns += imbal
			}
			return cpu.Segment{Instructions: insns}
		})
		cfg := configs[int(seed)%len(configs)]
		res := runProg(t, arch, cfg, prog, true)
		if res.Stats.Episodes != phases {
			return false
		}
		prevDepart := make([]sim.Cycles, arch.Nodes)
		for _, ep := range res.Episodes {
			for th := range ep.Arrive {
				if ep.Arrive[th] < prevDepart[th] {
					return false // arrived before departing the previous phase
				}
				if ep.Depart[th] < ep.ReleaseAt {
					return false // left before the release
				}
				prevDepart[th] = ep.Depart[th]
			}
		}
		total := res.Breakdown.TotalTime()
		upper := sim.Cycles(arch.Nodes) * res.Span
		return total <= upper && float64(total) >= 0.9*float64(upper)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a thrifty run's energy never exceeds ~baseline's on programs
// with any imbalance level (the mechanism may decline to sleep, but must
// not waste more than its decision overhead).
func TestThriftyNeverMuchWorseProperty(t *testing.T) {
	arch := testArch()
	f := func(imbalRaw uint8) bool {
		extra := int64(imbalRaw) * 3_000
		prog := UniformProgram(0x100, 8, imbalancedWork(150_000, extra))
		base := runProg(t, arch, Baseline(), prog, false)
		thr := runProg(t, arch, Thrifty(), prog, false)
		n := thr.Breakdown.Normalize(base.Breakdown)
		return n.TotalEnergy() < 1.03 && n.SpanRatio < 1.06
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: tree check-in is semantics-equivalent to flat for any arity.
func TestTreeEquivalenceProperty(t *testing.T) {
	arch := testArch()
	f := func(arityRaw, seed uint8) bool {
		arity := int(arityRaw%7) + 2
		prog := UniformProgram(0x100, 4, func(instance, thread int) cpu.Segment {
			return cpu.Segment{Instructions: int64(100_000 + thread*1_000 + instance*500 + int(seed)*100)}
		})
		opts := Baseline()
		opts.TreeArity = arity
		res := runProg(t, arch, opts, prog, true)
		if res.Stats.Episodes != 4 {
			return false
		}
		for _, ep := range res.Episodes {
			for th := range ep.Depart {
				if ep.Depart[th] < ep.ReleaseAt {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
