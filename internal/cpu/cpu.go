// Package cpu models the per-node processor of the simulated machine: a
// six-issue out-of-order core (Table 1) abstracted to segment granularity.
// A compute segment carries a dynamic instruction count and a sampled
// memory-reference stream; the core converts it to time as base issue
// cycles plus the memory stalls the real cache/coherence substrate reports,
// discounted by an out-of-order overlap factor. The package also provides
// the charging helpers the barrier layer uses to account spin, transition
// and sleep intervals.
package cpu

import (
	"fmt"

	"thriftybarrier/internal/mem/coherence"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/sim"
)

// Ref is one sampled memory reference of a compute segment.
type Ref struct {
	Addr  uint64
	Write bool
}

// Segment is one thread's compute work between two barriers.
type Segment struct {
	// Instructions is the dynamic instruction count of the segment.
	Instructions int64
	// Refs is the sampled reference stream driven through the memory
	// hierarchy. RunSegment only reads it, so a program may hand the
	// same slice to many segments.
	Refs []Ref
	// More continues the stream after Refs, so a segment can be two
	// windows of a program's shared reference tables without a copy.
	More []Ref
	// RefScale is how many actual references each sampled one stands for;
	// memory stall time is scaled accordingly. Zero means 1.
	RefScale float64
}

// Config holds the core's timing parameters.
type Config struct {
	// IPC is the sustained issue rate in the absence of memory stalls.
	IPC float64
	// Overlap is the fraction of each memory stall hidden by out-of-order
	// execution and MLP, in [0,1).
	Overlap float64
}

// DefaultConfig models the paper's six-issue dynamic core with a typical
// sustained IPC of 2 and moderate latency tolerance.
func DefaultConfig() Config {
	return Config{IPC: 2.0, Overlap: 0.4}
}

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.IPC <= 0 {
		return fmt.Errorf("cpu: non-positive IPC %v", c.IPC)
	}
	if c.Overlap < 0 || c.Overlap >= 1 {
		return fmt.Errorf("cpu: overlap %v outside [0,1)", c.Overlap)
	}
	return nil
}

// CPU is one node's processor. It owns the node's state timeline for
// energy accounting; the barrier layer charges barrier-side intervals
// through the Charge* helpers so that all accounting flows through one
// place.
type CPU struct {
	id       int
	cfg      Config
	proto    *coherence.Protocol
	model    *power.Model
	activity power.Activity
	tl       sim.Timeline
}

// New builds a CPU bound to a node of the coherence substrate.
func New(id int, cfg Config, proto *coherence.Protocol, model *power.Model, activity power.Activity) *CPU {
	c := Make(id, cfg, proto, model, activity)
	return &c
}

// Make is New returning the CPU by value, so a machine can keep all its
// CPUs in one slice.
func Make(id int, cfg Config, proto *coherence.Protocol, model *power.Model, activity power.Activity) CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return CPU{id: id, cfg: cfg, proto: proto, model: model, activity: activity}
}

// ID returns the node id.
func (c *CPU) ID() int { return c.id }

// Timeline exposes the CPU's accounting timeline.
func (c *CPU) Timeline() *sim.Timeline { return &c.tl }

// Model exposes the power model.
func (c *CPU) Model() *power.Model { return c.model }

// ComputePower is this CPU's active power for its workload mix.
func (c *CPU) ComputePower() float64 { return c.model.ActivePower(c.activity) }

// RunSegment executes seg starting at simulated time now: every sampled
// reference runs through the cache hierarchy and coherence protocol, and
// the resulting duration is charged to Compute. It returns the segment
// duration.
func (c *CPU) RunSegment(now sim.Cycles, seg Segment) sim.Cycles {
	base, stall := c.run(now, seg)
	dur := base + stall
	if dur <= 0 {
		dur = 1
	}
	c.tl.AddInterval(sim.StateCompute, dur, c.ComputePower())
	return dur
}

// run drives seg's sampled references, Refs then More, through the
// memory hierarchy, issued back to back after the segment's base issue
// cycles. It returns the base cycles at nominal frequency and the memory
// stall: each reference's latency beyond an L1 hit, less the out-of-order
// overlap, scaled by RefScale.
func (c *CPU) run(now sim.Cycles, seg Segment) (base, stall sim.Cycles) {
	base = sim.Cycles(float64(seg.Instructions) / c.cfg.IPC)
	scale := seg.RefScale
	if scale == 0 {
		scale = 1
	}
	l1 := c.proto.Config().L1Hit
	t := now + base
	for _, refs := range [...][]Ref{seg.Refs, seg.More} {
		for _, r := range refs {
			var lat sim.Cycles
			if r.Write {
				lat = c.proto.Write(c.id, r.Addr, t)
			} else {
				lat = c.proto.Read(c.id, r.Addr, t)
			}
			if lat > l1 {
				extra := float64(lat-l1) * (1 - c.cfg.Overlap) * scale
				stall += sim.Cycles(extra)
			}
			t += lat
		}
	}
	return base, stall
}

// ChargeCompute accounts d cycles of non-segment computation (barrier
// bookkeeping, lock waits, flush time — all Compute in the paper's
// breakdown).
func (c *CPU) ChargeCompute(d sim.Cycles) {
	c.tl.AddInterval(sim.StateCompute, d, c.ComputePower())
}

// ChargeSpin accounts d cycles of barrier spinning.
func (c *CPU) ChargeSpin(d sim.Cycles) {
	c.tl.AddInterval(sim.StateSpin, d, c.model.SpinPower())
}

// ChargeTransition accounts d cycles transitioning into or out of state s.
func (c *CPU) ChargeTransition(s power.SleepState, d sim.Cycles) {
	c.tl.AddInterval(sim.StateTransition, d, c.model.TransitionPower(s))
}

// ChargeSleep accounts d cycles of residency in state s.
func (c *CPU) ChargeSleep(s power.SleepState, d sim.Cycles) {
	c.tl.AddInterval(sim.StateSleep, d, c.model.SleepPower(s))
}

// RunSegmentDVFS executes seg with the core clock scaled by factor f in
// (0, 1]: core-bound cycles stretch by 1/f while memory stall time is
// unchanged (DRAM and the network do not slow down), and the core portion
// is charged at power scaled by f^3 (frequency x voltage^2 with voltage
// tracking frequency) — so core energy scales by ~f^2.
//
// budget bounds how much f=1-equivalent core time may run scaled: work
// beyond it runs at nominal frequency — the governor's mid-phase ramp-up
// when the phase turns out longer than the slack prediction assumed
// (without it, one underprediction slows the critical path and compounds).
// budget <= 0 means unlimited.
//
// It returns the scaled duration and the f=1-equivalent duration (for
// slack predictors).
func (c *CPU) RunSegmentDVFS(now sim.Cycles, seg Segment, f float64, budget sim.Cycles) (dur, baseEquiv sim.Cycles) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("cpu: DVFS factor %v outside (0,1]", f))
	}
	base, stall := c.run(now, seg)
	scaledBase := base
	if budget > 0 && budget < base {
		scaledBase = budget
	}
	nominalBase := base - scaledBase
	core := sim.Cycles(float64(scaledBase)/f) + nominalBase
	dur = core + stall
	if dur <= 0 {
		dur = 1
	}
	if scaledBase > 0 {
		c.tl.AddInterval(sim.StateCompute, sim.Cycles(float64(scaledBase)/f), c.ComputePower()*f*f*f)
	}
	if nominalBase+stall > 0 {
		c.tl.AddInterval(sim.StateCompute, nominalBase+stall, c.ComputePower())
	}
	baseEquiv = base + stall
	if baseEquiv <= 0 {
		baseEquiv = 1
	}
	return dur, baseEquiv
}
