package harness

import (
	"fmt"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/fault"
	"thriftybarrier/internal/predict"
	"thriftybarrier/internal/sim"
	"thriftybarrier/internal/workload"
)

// AblationRow is one configuration variant measured against the app's
// Baseline.
type AblationRow struct {
	App     string
	Variant string
	Energy  float64 // normalized to Baseline
	Time    float64 // span ratio vs Baseline
	Stats   core.Stats
}

// AblationCutoff reproduces the §5.2 narrative on Ocean: the overprediction
// cut-off threshold swept from disabled to aggressive, plus the
// internal-only wake-up variant without a cut-off (unbounded lateness).
// Without the cut-off the paper measures up to ~12% degradation; with the
// 10% threshold losses stay within 3.5%.
func AblationCutoff(arch core.Arch, seed uint64) []AblationRow {
	spec := workload.Ocean()
	prog := spec.Build(arch.Nodes, seed)
	base := core.Simulate(arch, core.Baseline(), prog, false)

	var rows []AblationRow
	add := func(variant string, opts core.Options) {
		res := core.Simulate(arch, opts, prog, false)
		n := res.Breakdown.Normalize(base.Breakdown)
		rows = append(rows, AblationRow{
			App: spec.Name, Variant: variant,
			Energy: n.TotalEnergy(), Time: n.SpanRatio, Stats: res.Stats,
		})
	}
	for _, cutoff := range []float64{0, 0.05, 0.10, 0.20, 0.50} {
		opts := core.Thrifty()
		opts.Cutoff = cutoff
		name := "cutoff=off"
		if cutoff > 0 {
			name = fmt.Sprintf("cutoff=%.0f%%", cutoff*100)
		}
		add(name, opts)
	}
	internal := core.Thrifty()
	internal.Wakeup = core.WakeupInternal
	internal.Cutoff = 0
	add("internal-only, cutoff=off", internal)
	return rows
}

// AblationWakeup compares the three wake-up mechanisms of §3.3 on a stable
// application (FMM) and the adversarial one (Ocean).
func AblationWakeup(arch core.Arch, seed uint64) []AblationRow {
	var rows []AblationRow
	for _, spec := range []workload.Spec{workload.FMM(), workload.Ocean()} {
		prog := spec.Build(arch.Nodes, seed)
		base := core.Simulate(arch, core.Baseline(), prog, false)
		for _, mode := range []core.WakeupMode{core.WakeupHybrid, core.WakeupExternal, core.WakeupInternal} {
			opts := core.Thrifty()
			opts.Wakeup = mode
			res := core.Simulate(arch, opts, prog, false)
			n := res.Breakdown.Normalize(base.Breakdown)
			rows = append(rows, AblationRow{
				App: spec.Name, Variant: mode.String(),
				Energy: n.TotalEnergy(), Time: n.SpanRatio, Stats: res.Stats,
			})
		}
	}
	return rows
}

// AblationPredictor compares BIT prediction policies — last-value (the
// paper's choice), moving average, EWMA — and the per-thread direct-BST
// strawman the paper argues against (§3.2), on FMM and Barnes whose
// rotating stragglers make direct BST prediction hard.
func AblationPredictor(arch core.Arch, seed uint64) []AblationRow {
	var rows []AblationRow
	variants := []struct {
		name string
		mut  func(*core.Options)
	}{
		{"last-value (paper)", func(*core.Options) {}},
		{"moving-average-4", func(o *core.Options) {
			o.Predictor = predict.Config{Policy: predict.MovingAverage, Window: 4}
		}},
		{"ewma-0.5", func(o *core.Options) {
			o.Predictor = predict.Config{Policy: predict.EWMA, Alpha: 0.5}
		}},
		{"direct-BST", func(o *core.Options) { o.BSTDirect = true }},
	}
	for _, spec := range []workload.Spec{workload.FMM(), workload.Barnes()} {
		prog := spec.Build(arch.Nodes, seed)
		base := core.Simulate(arch, core.Baseline(), prog, false)
		for _, v := range variants {
			opts := core.Thrifty()
			v.mut(&opts)
			res := core.Simulate(arch, opts, prog, false)
			n := res.Breakdown.Normalize(base.Breakdown)
			rows = append(rows, AblationRow{
				App: spec.Name, Variant: v.name,
				Energy: n.TotalEnergy(), Time: n.SpanRatio, Stats: res.Stats,
			})
		}
	}
	return rows
}

// AblationConventional compares the thrifty barrier against the
// conventional low-power waiting techniques §5.1 discusses: unconditional
// halt on arrival (§3.1's simplest form) and spin-then-halt. The paper
// argues these "would likely find a lower bound in Oracle-Halt, itself
// inferior to Thrifty".
func AblationConventional(arch core.Arch, seed uint64) []AblationRow {
	var rows []AblationRow
	for _, spec := range []workload.Spec{workload.FMM(), workload.Ocean()} {
		prog := spec.Build(arch.Nodes, seed)
		base := core.Simulate(arch, core.Baseline(), prog, false)
		for _, opts := range []core.Options{
			core.TimeShare(200 * sim.Microsecond),
			core.UnconditionalHalt(), core.SpinThenHalt(),
			core.ThriftyHalt(), core.OracleHalt(), core.Thrifty(),
		} {
			res := core.Simulate(arch, opts, prog, false)
			n := res.Breakdown.Normalize(base.Breakdown)
			rows = append(rows, AblationRow{
				App: spec.Name, Variant: opts.Name,
				Energy: n.TotalEnergy(), Time: n.SpanRatio, Stats: res.Stats,
			})
		}
	}
	return rows
}

// AblationPreempt reproduces the §3.4.2 scenario: periodic OS preemptions
// inflate some barrier intervals; the underprediction filter keeps the
// inflated values out of the BIT table so the next instance does not
// overpredict massively.
func AblationPreempt(arch core.Arch, seed uint64) []AblationRow {
	spec := workload.Barnes()
	prog := spec.Build(arch.Nodes, seed)
	// Inject a 5 ms preemption into every 7th phase, rotating victims.
	for i := 3; i < len(prog); i += 7 {
		prog[i].PreemptThread = (i * 13) % arch.Nodes
		prog[i].PreemptDelay = 5 * sim.Millisecond
	}
	base := core.Simulate(arch, core.Baseline(), prog, false)

	var rows []AblationRow
	for _, factor := range []float64{0, 2, 4, 8} {
		opts := core.Thrifty()
		opts.Predictor.UnderpredictFactor = factor
		res := core.Simulate(arch, opts, prog, false)
		n := res.Breakdown.Normalize(base.Breakdown)
		name := "filter=off"
		if factor > 0 {
			name = fmt.Sprintf("filter=%.0fx", factor)
		}
		rows = append(rows, AblationRow{
			App: spec.Name + "+preempt", Variant: name,
			Energy: n.TotalEnergy(), Time: n.SpanRatio, Stats: res.Stats,
		})
	}
	return rows
}

// AblationFaults runs the §3.3 failure narrative as injected faults on
// FMM: dropped external wake-up invalidations at increasing rates under
// hybrid vs external-only wake-up (with and without the §3.3.3 cut-off),
// and failed internal timers under hybrid vs internal-only. The table is
// the robustness claim in numbers: whichever single channel a fault
// silences, hybrid still has a bounded path — drops are bounded by the
// timer, timer failures by the invalidation — while either single-channel
// mechanism strands its sleepers until the (enormous) OS recovery
// timeout. Fault decisions are a pure function of (seed, phase, thread),
// so rows are byte-identical across harness worker widths.
func AblationFaults(arch core.Arch, seed uint64) []AblationRow {
	spec := workload.FMM()
	prog := spec.Build(arch.Nodes, seed)
	base := core.Simulate(arch, core.Baseline(), prog, false)

	var rows []AblationRow
	add := func(variant string, opts core.Options) {
		res := core.Simulate(arch, opts, prog, false)
		n := res.Breakdown.Normalize(base.Breakdown)
		rows = append(rows, AblationRow{
			App: spec.Name, Variant: variant,
			Energy: n.TotalEnergy(), Time: n.SpanRatio, Stats: res.Stats,
		})
	}
	variant := func(mode core.WakeupMode, plan *fault.Plan) core.Options {
		o := core.Thrifty()
		o.Wakeup = mode
		o.Faults = plan
		return o
	}

	for _, rate := range []float64{0, 0.05, 0.20, 0.50} {
		plan := &fault.Plan{Seed: seed, DropWakeup: rate}
		if rate == 0 {
			plan = nil
		}
		add(fmt.Sprintf("hybrid, drop=%.0f%%", rate*100), variant(core.WakeupHybrid, plan))
		add(fmt.Sprintf("external, drop=%.0f%%", rate*100), variant(core.WakeupExternal, plan))
	}
	// Without the cut-off, a repeatedly-stranded external-only sleeper
	// keeps paying the recovery timeout; with it, prediction is disabled
	// at the damaged (barrier, thread) after the first overshoot and the
	// thread spins instead — the Disables column tells the story.
	noCut := variant(core.WakeupExternal, &fault.Plan{Seed: seed, DropWakeup: 0.20})
	noCut.Cutoff = 0
	add("external, drop=20%, cutoff=off", noCut)

	for _, rate := range []float64{0.20, 0.50} {
		plan := &fault.Plan{Seed: seed, TimerFail: rate}
		add(fmt.Sprintf("hybrid, timerfail=%.0f%%", rate*100), variant(core.WakeupHybrid, plan))
		add(fmt.Sprintf("internal, timerfail=%.0f%%", rate*100), variant(core.WakeupInternal, plan))
	}
	return rows
}

// AblationStraggler contrasts a rotating straggler with a pinned one: with
// a pinned straggler even the direct-BST strawman predicts well (stall is
// stable per thread), while rotation breaks it but leaves BIT untouched —
// the precise reason §3.2 prefers the thread-independent metric.
func AblationStraggler(arch core.Arch, seed uint64) []AblationRow {
	var rows []AblationRow
	for _, rotate := range []bool{false, true} {
		spec := workload.Spec{
			Name:            "synthetic",
			TargetImbalance: 0.17,
			Iterations:      16,
			Seed:            uint64(50),
			Loop: []workload.BarrierSpec{{
				Label: "phase", BaseInstr: 2_000_000, Straggler: 0.25,
				Stragglers: 8, Rotate: rotate, Noise: 0.04,
			}},
		}
		prog := spec.Build(arch.Nodes, seed)
		base := core.Simulate(arch, core.Baseline(), prog, false)
		name := "pinned straggler"
		if rotate {
			name = "rotating straggler"
		}
		for _, variant := range []struct {
			label string
			mut   func(*core.Options)
		}{
			{"BIT (paper)", func(*core.Options) {}},
			{"direct-BST", func(o *core.Options) { o.BSTDirect = true }},
		} {
			opts := core.Thrifty()
			variant.mut(&opts)
			res := core.Simulate(arch, opts, prog, false)
			n := res.Breakdown.Normalize(base.Breakdown)
			rows = append(rows, AblationRow{
				App: name, Variant: variant.label,
				Energy: n.TotalEnergy(), Time: n.SpanRatio, Stats: res.Stats,
			})
		}
	}
	return rows
}

// AblationDVFS compares sleeping at the barrier (the paper's approach)
// with slack-reclamation DVFS (the §1 alternative: "slowing down threads
// not on the critical path"), on a deep-slack app (Volrend), a moderate
// one (FMM), and the adversarial Ocean.
func AblationDVFS(arch core.Arch, seed uint64) []AblationRow {
	var rows []AblationRow
	for _, spec := range []workload.Spec{workload.Volrend(), workload.FMM(), workload.Ocean()} {
		prog := spec.Build(arch.Nodes, seed)
		base := core.Simulate(arch, core.Baseline(), prog, false)
		for _, opts := range []core.Options{core.DVFSReclaim(), core.ThriftyHalt(), core.Thrifty()} {
			res := core.Simulate(arch, opts, prog, false)
			n := res.Breakdown.Normalize(base.Breakdown)
			rows = append(rows, AblationRow{
				App: spec.Name, Variant: opts.Name,
				Energy: n.TotalEnergy(), Time: n.SpanRatio, Stats: res.Stats,
			})
		}
	}
	return rows
}
