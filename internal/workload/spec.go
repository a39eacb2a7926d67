// Package workload provides the synthetic SPLASH-2-style applications the
// evaluation runs. Since the real SPLASH-2 binaries cannot execute on this
// substrate, each application is modeled as a barrier-phase program
// parameterized along the four axes that determine every result in the
// paper: barrier imbalance (Table 2), per-static-barrier interval stability
// (Figure 3), interval length relative to the sleep-state transition
// latencies, and dirty working-set size (the deep-sleep flush cost). The
// parameters of the ten applications are calibrated so that the measured
// Baseline imbalance reproduces Table 2.
package workload

import (
	"fmt"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/sim"
)

// BarrierSpec describes one static barrier in an application's main loop
// and the compute phase that precedes it.
type BarrierSpec struct {
	// Label names the barrier for Figure-3-style reports.
	Label string
	// BaseInstr is the mean per-thread dynamic instruction count of the
	// phase (at IPC 2 and 1 GHz, 100k instructions ≈ 50 µs).
	BaseInstr int64
	// Straggler is the extra work factor of the slowest thread: that
	// thread executes BaseInstr*(1+Straggler). Barrier imbalance is
	// approximately Straggler/(1+Straggler) for one straggler.
	Straggler float64
	// Stragglers is how many threads straggle per instance (default 1).
	Stragglers int
	// Rotate makes the straggler identity rotate across instances — the
	// paper's observation that computation costs shift among threads while
	// the interval stays stable (§3.2).
	Rotate bool
	// Noise is the per-thread multiplicative jitter (uniform ±Noise).
	Noise float64
	// Swing, when non-empty, multiplies BaseInstr by Swing[i % len] at
	// instance i: the Ocean pathology of interval times that drop sharply
	// between instances (§5.2).
	Swing []float64
	// DirtyLines is the number of distinct cache lines each thread dirties
	// during the phase (deep-sleep flush cost and post-flush compulsory
	// misses).
	DirtyLines int
	// SharedReads is the number of shared-data lines each thread reads.
	SharedReads int
}

// Validate reports an error for impossible barrier parameters.
func (b BarrierSpec) Validate() error {
	if b.BaseInstr <= 0 {
		return fmt.Errorf("workload: barrier %q non-positive base %d", b.Label, b.BaseInstr)
	}
	if b.Straggler < 0 || b.Noise < 0 || b.DirtyLines < 0 || b.SharedReads < 0 {
		return fmt.Errorf("workload: barrier %q negative parameter", b.Label)
	}
	if b.Stragglers < 0 {
		return fmt.Errorf("workload: barrier %q negative straggler count", b.Label)
	}
	for _, s := range b.Swing {
		if s <= 0 {
			return fmt.Errorf("workload: barrier %q non-positive swing factor", b.Label)
		}
	}
	return nil
}

// Spec is one synthetic application.
type Spec struct {
	// Name is the SPLASH-2 application this program stands in for.
	Name string
	// ProblemSize documents the paper's input (Table 2), for reports.
	ProblemSize string
	// TargetImbalance is the paper's measured Baseline barrier imbalance
	// (Table 2), which the calibration reproduces.
	TargetImbalance float64
	// Iterations is the number of main-loop iterations.
	Iterations int
	// Loop is the sequence of static barriers executed per iteration.
	Loop []BarrierSpec
	// Prologue is a sequence of one-shot static barriers executed once at
	// program start, each with a distinct PC (the FFT/Cholesky structure
	// that defeats PC-indexed prediction).
	Prologue []BarrierSpec
	// OneShot marks applications consisting only of non-repeating barriers
	// (Iterations/Loop unused).
	OneShot bool
	// Seed decorrelates this application's random streams.
	Seed uint64
}

// Validate reports an error for inconsistent specs.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: unnamed spec")
	}
	if !s.OneShot {
		if s.Iterations <= 0 {
			return fmt.Errorf("workload: %s non-positive iterations", s.Name)
		}
		if len(s.Loop) == 0 {
			return fmt.Errorf("workload: %s has no loop barriers", s.Name)
		}
	}
	if s.OneShot && len(s.Prologue) == 0 {
		return fmt.Errorf("workload: %s one-shot with empty prologue", s.Name)
	}
	for _, b := range s.Loop {
		if err := b.Validate(); err != nil {
			return err
		}
	}
	for _, b := range s.Prologue {
		if err := b.Validate(); err != nil {
			return err
		}
	}
	if s.TargetImbalance < 0 || s.TargetImbalance >= 1 {
		return fmt.Errorf("workload: %s target imbalance %v out of [0,1)", s.Name, s.TargetImbalance)
	}
	return nil
}

// Phases reports the number of dynamic barrier instances the program has.
func (s Spec) Phases() int {
	if s.OneShot {
		return len(s.Prologue)
	}
	return len(s.Prologue) + s.Iterations*len(s.Loop)
}

// pcBase assigns static-barrier PCs: prologue barriers use one PC each,
// loop barriers reuse theirs every iteration.
const (
	prologuePCBase = uint64(0x400000)
	loopPCBase     = uint64(0x500000)
	pcStride       = 8
)

// Build converts the spec into a runnable program for a machine of the
// given size. All randomness derives from (seed, spec.Seed); builds are
// deterministic and independent of call order.
func (s Spec) Build(nodes int, seed uint64) core.SliceProgram {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	root := sim.NewRNG(seed).Split(s.Seed)
	prog := make(core.SliceProgram, 0, s.Phases())
	refs := newRefTables(s, nodes)

	addPhase := func(b BarrierSpec, pc uint64, instance int) {
		gen := newPhaseGen(b, nodes, instance, root.Split(pc).Split(uint64(instance)), refs)
		prog = append(prog, core.PhaseSpec{
			PC:            pc,
			Segment:       gen.segment,
			PreemptThread: -1,
		})
	}

	for i, b := range s.Prologue {
		addPhase(b, prologuePCBase+uint64(i)*pcStride, 0)
	}
	if !s.OneShot {
		for it := 0; it < s.Iterations; it++ {
			for j, b := range s.Loop {
				addPhase(b, loopPCBase+uint64(j)*pcStride, it)
			}
		}
	}
	return prog
}

// sharedLines is the size of the region of shared lines every thread
// reads from, and sharedStep the stride of one thread's reads through it.
// sharedStepInv is sharedStep's inverse modulo sharedLines: 7·3511 =
// 6·4096 + 1.
const (
	sharedLines   = 4096
	sharedStep    = 7
	sharedStepInv = 3511
)

// refTables holds every reference a program's segments hand out, built
// once per program; segments are windows of them, so generating one
// allocates nothing.
type refTables struct {
	// dirty holds each thread's dirty working set, maxDirty writes per
	// thread: a fixed per-thread region, so lines are re-dirtied every
	// phase. After a gated sleep's flush they come back as compulsory
	// misses (§5.2).
	dirty    []cpu.Ref
	maxDirty int
	// shared holds at entry k a read of shared line sharedStep·k mod
	// sharedLines, and runs maxShared entries past the last line so that
	// every window is contiguous.
	shared []cpu.Ref
}

func newRefTables(s Spec, nodes int) *refTables {
	maxDirty, maxShared := 0, 0
	for _, bs := range [][]BarrierSpec{s.Prologue, s.Loop} {
		for _, b := range bs {
			maxDirty = max(maxDirty, b.DirtyLines)
			maxShared = max(maxShared, b.SharedReads)
		}
	}
	r := &refTables{dirty: make([]cpu.Ref, 0, nodes*maxDirty), maxDirty: maxDirty}
	for t := 0; t < nodes; t++ {
		for i := 0; i < maxDirty; i++ {
			addr := uint64(1)<<45 | uint64(t)<<24 | uint64(i*64)
			r.dirty = append(r.dirty, cpu.Ref{Addr: addr, Write: true})
		}
	}
	if maxShared > 0 {
		r.shared = make([]cpu.Ref, sharedLines+maxShared)
		for k := range r.shared {
			r.shared[k] = cpu.Ref{Addr: uint64(1)<<46 | uint64(sharedStep*k%sharedLines)<<6}
		}
	}
	return r
}

// phaseGen produces deterministic per-thread segments for one dynamic
// barrier instance.
type phaseGen struct {
	spec      BarrierSpec
	nodes     int
	instance  int
	straggler int
	swing     float64
	rng       *sim.RNG
	refs      *refTables
}

func newPhaseGen(b BarrierSpec, nodes, instance int, rng *sim.RNG, refs *refTables) *phaseGen {
	g := &phaseGen{spec: b, nodes: nodes, instance: instance, rng: rng, swing: 1, refs: refs}
	if len(b.Swing) > 0 {
		g.swing = b.Swing[instance%len(b.Swing)]
	}
	if b.Rotate {
		g.straggler = rng.Intn(nodes)
	}
	return g
}

// segment builds thread t's compute work for this instance: its dirty
// lines, then its shared reads.
func (g *phaseGen) segment(t int) cpu.Segment {
	b := g.spec
	// Per-thread jitter derived from a thread-specific stream so that
	// calling order does not matter.
	tr := g.rng.Split(uint64(t) + 1)
	mult := g.swing * (1 + b.Noise*(2*tr.Float64()-1))
	insns := float64(b.BaseInstr) * mult
	stragglers := b.Stragglers
	if stragglers == 0 {
		stragglers = 1
	}
	for k := 0; k < stragglers; k++ {
		idx := (g.straggler + k) % g.nodes
		if t == idx {
			insns += float64(b.BaseInstr) * g.swing * b.Straggler
		}
	}

	seg := cpu.Segment{Instructions: int64(insns)}
	if n := b.DirtyLines; n > 0 {
		at := t * g.refs.maxDirty
		seg.Refs = g.refs.dirty[at : at+n : at+n]
	}
	// Thread t reads shared lines first, first+7, first+14, ... (mod
	// 4096), spread over a region touched by all threads; that run
	// starts at the table entry holding line first.
	if n := b.SharedReads; n > 0 {
		first := (g.instance*131 + t) % sharedLines
		at := sharedStepInv * first % sharedLines
		seg.More = g.refs.shared[at : at+n : at+n]
	}
	return seg
}

// BarrierProfile summarizes one static barrier's dynamic behaviour in a
// built program — the per-barrier view behind Figure 3 and Table 2.
type BarrierProfile struct {
	PC        uint64
	Instances int
	// MeanInstr is the mean per-thread instruction count over instances.
	MeanInstr float64
}

// Profile enumerates the static barriers of a built program with their
// instance counts and mean work — a quick structural fingerprint used by
// diagnostics and tests.
func Profile(prog core.SliceProgram, threads int) []BarrierProfile {
	order := []uint64{}
	agg := map[uint64]*BarrierProfile{}
	for i := 0; i < prog.Phases(); i++ {
		spec := prog.Phase(i)
		p := agg[spec.PC]
		if p == nil {
			p = &BarrierProfile{PC: spec.PC}
			agg[spec.PC] = p
			order = append(order, spec.PC)
		}
		p.Instances++
		var sum int64
		for t := 0; t < threads; t++ {
			sum += spec.Segment(t).Instructions
		}
		p.MeanInstr += float64(sum) / float64(threads)
	}
	out := make([]BarrierProfile, 0, len(order))
	for _, pc := range order {
		p := agg[pc]
		p.MeanInstr /= float64(p.Instances)
		out = append(out, *p)
	}
	return out
}
