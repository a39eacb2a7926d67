// Package core implements the thrifty barrier on the simulated CC-NUMA
// machine: the sense-reversal barrier over real cache lines, the
// conditional-sleep decision with multi-state selection (§3.1), the
// no-global-clock timing bookkeeping (§3.2.1), the external, internal and
// hybrid wake-up mechanisms (§3.3), and the overprediction cut-off
// (§3.3.3). It provides the five system configurations of the evaluation:
// Baseline, Thrifty-Halt, Oracle-Halt, Thrifty, and Ideal.
package core

import (
	"fmt"

	"thriftybarrier/internal/fault"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/predict"
	"thriftybarrier/internal/sim"
)

// WakeupMode selects how dormant CPUs are woken (§3.3).
type WakeupMode int

const (
	// WakeupHybrid combines the internal timer (anticipates the release)
	// with the external invalidation signal (bounds lateness); the first to
	// trigger cancels the other. This is the paper's production design.
	WakeupHybrid WakeupMode = iota
	// WakeupExternal wakes only on the coherence invalidation of the
	// barrier flag: lateness is bounded, but the exit transition always
	// lands on the critical path.
	WakeupExternal
	// WakeupInternal wakes only on the programmed timer: wake-up can
	// anticipate the release, but overprediction lateness is unbounded.
	WakeupInternal
)

func (m WakeupMode) String() string {
	switch m {
	case WakeupHybrid:
		return "hybrid"
	case WakeupExternal:
		return "external"
	case WakeupInternal:
		return "internal"
	default:
		return fmt.Sprintf("WakeupMode(%d)", int(m))
	}
}

// Options selects a barrier configuration.
type Options struct {
	// Name labels the configuration in reports ("Baseline", "Thrifty", …).
	Name string
	// States is the available sleep-state catalogue, shallow to deep. An
	// empty catalogue yields the conventional barrier (pure spinning).
	States []power.SleepState
	// Oracle replaces history-based BIT prediction with perfect knowledge
	// of the upcoming release (the Oracle-Halt and Ideal configurations).
	// Oracle wake-up is perfectly timed, so it never perturbs arrival
	// times and never triggers the cut-off.
	Oracle bool
	// NoFlush removes the dirty-data flush cost and cache gating of deep
	// sleep states (the Ideal configuration).
	NoFlush bool
	// Wakeup selects the wake-up mechanism for the non-oracle sleeper.
	Wakeup WakeupMode
	// Cutoff is the overprediction threshold relative to BIT (§3.3.3):
	// a thread whose post-sleep wake time overshoots the reconstructed
	// release by more than Cutoff×BIT disables prediction for itself on
	// that barrier. The paper found 10% to work well. Zero disables.
	Cutoff float64
	// Predictor configures the BIT table (ignored under Oracle).
	Predictor predict.Config
	// DecisionCost is the time the sleep()/prediction library code costs an
	// early-arriving thread. Kumar et al. (cited in §6) justify that such
	// lightweight control logic has little impact; it is still modeled.
	DecisionCost sim.Cycles
	// CheckinCost is the barrier bookkeeping cost beyond the count-line RMW
	// itself (lock acquire/release instructions).
	CheckinCost sim.Cycles
	// BSTDirect switches prediction to the strawman per-thread direct
	// barrier-stall-time predictor (predictor ablation only).
	BSTDirect bool
	// Unconditional makes every early thread sleep in the shallowest state
	// immediately, with external wake-up only — the paper's "simplest form"
	// (§3.1: execute Halt on every early arrival), which conditional sleep
	// exists to improve on.
	Unconditional bool
	// SpinThenSleep, when > 0, implements the conventional low-power
	// technique §5.1 compares against: spin for this long, then enter the
	// shallowest state with external wake-up only. No prediction is used.
	SpinThenSleep sim.Cycles
	// YieldReschedule, when > 0, models the §3.4.1 time-sharing
	// alternative: an early thread yields its CPU to other work instead of
	// spinning or sleeping; the CPU stays busy (no energy saved from the
	// system's perspective beyond the spin/compute difference), and after
	// the release the thread must wait to be rescheduled — this delay on
	// the critical path is exactly why the paper argues time-sharing "may
	// hurt performance significantly" unless scheduling is carefully
	// planned.
	YieldReschedule sim.Cycles
	// DVFS enables the §1 alternative the paper contrasts with: instead of
	// sleeping AT the barrier, each thread slows its next compute phase so
	// it arrives just in time ("slowing down threads not on the critical
	// path"). The frequency factor is chosen from the predicted barrier
	// interval and a per-(barrier, thread) last-value compute-time
	// predictor; core energy scales ~f^2 while memory stalls are
	// unaffected. Waits that remain are spun. Mutually exclusive with
	// sleep-state policies.
	DVFS bool
	// DVFSMinFreq floors the frequency factor (default 0.5).
	DVFSMinFreq float64
	// DVFSMargin targets arrival at this fraction of the predicted slack
	// window, guarding the positive-feedback drift of pure slack
	// reclamation (default 0.9).
	DVFSMargin float64
	// Faults, when non-nil, injects the §3.3/§3.4 failure modes into the
	// run: lost external wake-up invalidations, internal-timer drift and
	// failure, preemption storms, and node stalls. Decisions are a pure
	// function of (plan seed, phase, thread), so a faulted run is exactly
	// reproducible. A sleeper that loses every wake-up channel is revived
	// by an OS-watchdog recovery after the plan's (large) recovery
	// timeout — the measurable stand-in for "unbounded" lateness.
	Faults *fault.Plan
	// TreeArity, when >= 2, replaces the flat check-in (Figure 2's single
	// lock-protected counter) with a combining tree of that arity: threads
	// check into per-group counter lines, and the last thread of each
	// group climbs. This removes most of the O(N) check-in serialization
	// of the flat barrier — the barrier-algorithm sensitivity the Kumar et
	// al. discussion (§6) motivates. Zero keeps the paper's flat barrier.
	TreeArity int
	// Topology selects the check-in fabric explicitly. TopologyFlat with
	// TreeArity >= 2 still means the fixed-arity combining tree, so
	// existing configurations keep their meaning; TopologyNoCTree selects
	// the NoC-matched multi-level tree (level-0 groups are the machine's
	// NoC regions, upper levels pair region leaders along hypercube
	// dimensions); with the default single region it is one group.
	Topology Topology
}

// Validate reports an error for inconsistent options.
func (o Options) Validate() error {
	if len(o.States) > 0 {
		if err := power.Validate(o.States); err != nil {
			return err
		}
	}
	if o.Cutoff < 0 {
		return fmt.Errorf("core: negative cutoff %v", o.Cutoff)
	}
	if o.DecisionCost < 0 || o.CheckinCost < 0 {
		return fmt.Errorf("core: negative cost in %+v", o)
	}
	if err := o.Predictor.Validate(); err != nil {
		return err
	}
	if o.Oracle && o.BSTDirect {
		return fmt.Errorf("core: oracle and direct-BST prediction are mutually exclusive")
	}
	if o.TreeArity == 1 || o.TreeArity < 0 {
		return fmt.Errorf("core: tree arity %d must be 0 (flat) or >= 2", o.TreeArity)
	}
	switch o.Topology {
	case TopologyFlat, TopologyNoCTree:
	case TopologyTree:
		if o.TreeArity < 2 {
			return fmt.Errorf("core: topology %v requires TreeArity >= 2", o.Topology)
		}
	default:
		return fmt.Errorf("core: unknown topology %v", o.Topology)
	}
	if o.Topology == TopologyNoCTree && o.TreeArity != 0 {
		return fmt.Errorf("core: NoC-matched tree derives its radices from the region fan-out; TreeArity must be 0")
	}
	if o.SpinThenSleep < 0 {
		return fmt.Errorf("core: negative spin-then-sleep threshold")
	}
	if (o.Unconditional || o.SpinThenSleep > 0) && len(o.States) == 0 {
		return fmt.Errorf("core: %s policy requires a sleep-state catalogue", o.Name)
	}
	if o.Unconditional && o.SpinThenSleep > 0 {
		return fmt.Errorf("core: unconditional and spin-then-sleep are mutually exclusive")
	}
	if o.Oracle && (o.Unconditional || o.SpinThenSleep > 0) {
		return fmt.Errorf("core: oracle excludes fixed policies")
	}
	if (o.Unconditional || o.SpinThenSleep > 0) && o.Wakeup == WakeupInternal {
		return fmt.Errorf("core: fixed policies have no prediction to program a timer with (internal wake-up impossible)")
	}
	if o.YieldReschedule < 0 {
		return fmt.Errorf("core: negative yield reschedule delay")
	}
	if err := o.Faults.Validate(); err != nil {
		return err
	}
	if o.YieldReschedule > 0 && (o.Unconditional || o.SpinThenSleep > 0 || len(o.States) > 0) {
		return fmt.Errorf("core: yield policy excludes sleep policies")
	}
	if o.DVFS {
		if len(o.States) > 0 || o.Oracle || o.Unconditional || o.SpinThenSleep > 0 || o.YieldReschedule > 0 {
			return fmt.Errorf("core: DVFS excludes sleep/yield policies")
		}
		if o.DVFSMinFreq <= 0 || o.DVFSMinFreq > 1 {
			return fmt.Errorf("core: DVFS min frequency %v outside (0,1]", o.DVFSMinFreq)
		}
		if o.DVFSMargin <= 0 || o.DVFSMargin > 1 {
			return fmt.Errorf("core: DVFS margin %v outside (0,1]", o.DVFSMargin)
		}
	}
	return nil
}

// Thrifty returns the paper's production configuration: all three Table 3
// sleep states, last-value BIT prediction, hybrid wake-up, 10% cut-off.
func Thrifty() Options {
	return Options{
		Name:         "Thrifty",
		States:       power.Table3(),
		Wakeup:       WakeupHybrid,
		Cutoff:       0.10,
		Predictor:    predict.DefaultConfig(),
		DecisionCost: 100 * sim.Nanosecond,
		CheckinCost:  20 * sim.Nanosecond,
	}
}

// ThriftyHalt is Thrifty restricted to the Halt state.
func ThriftyHalt() Options {
	o := Thrifty()
	o.Name = "Thrifty-Halt"
	o.States = power.HaltOnly()
	return o
}

// OracleHalt is Thrifty-Halt with perfect BIT prediction.
func OracleHalt() Options {
	o := ThriftyHalt()
	o.Name = "Oracle-Halt"
	o.Oracle = true
	return o
}

// Ideal is the theoretical bound: perfect prediction, the full catalogue,
// and no flushing overhead for any state.
func Ideal() Options {
	o := Thrifty()
	o.Name = "Ideal"
	o.Oracle = true
	o.NoFlush = true
	return o
}

// UnconditionalHalt sleeps on every early arrival — the §3.1 strawman.
func UnconditionalHalt() Options {
	o := ThriftyHalt()
	o.Name = "Uncond-Halt"
	o.Unconditional = true
	o.Cutoff = 0
	o.DecisionCost = 0
	return o
}

// SpinThenHalt is the conventional adaptive technique of §5.1: spin for a
// fixed window (twice the Halt round trip by default), then halt until the
// coherence invalidation wakes the CPU.
func SpinThenHalt() Options {
	o := ThriftyHalt()
	o.Name = "SpinThenHalt"
	o.SpinThenSleep = 4 * power.HaltOnly()[0].Transition
	o.Cutoff = 0
	o.DecisionCost = 0
	return o
}

// TimeShare models §3.4.1's multiprogrammed alternative: early threads
// yield the CPU to other processes; after the release they wait a
// scheduling delay before resuming. The CPU never idles, so the
// application's energy share shrinks only marginally while its execution
// time stretches.
func TimeShare(reschedule sim.Cycles) Options {
	o := Baseline()
	o.Name = "TimeShare"
	o.YieldReschedule = reschedule
	return o
}

// DVFSReclaim is the slack-reclamation comparator: threads not on the
// critical path run their next phase at reduced frequency to arrive just
// in time, instead of racing to the barrier and sleeping there.
func DVFSReclaim() Options {
	o := Baseline()
	o.Name = "DVFS"
	o.DVFS = true
	o.DVFSMinFreq = 0.5
	o.DVFSMargin = 0.9
	return o
}

// Baseline is the conventional sense-reversal spin barrier.
func Baseline() Options {
	return Options{
		Name:        "Baseline",
		Predictor:   predict.DefaultConfig(),
		CheckinCost: 20 * sim.Nanosecond,
	}
}

// Configurations returns the five systems of the evaluation, in the order
// the paper's figures present them (B, H, O, T, I).
func Configurations() []Options {
	return []Options{Baseline(), ThriftyHalt(), OracleHalt(), Thrifty(), Ideal()}
}
