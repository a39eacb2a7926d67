package harness

import (
	"fmt"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/locks"
	"thriftybarrier/internal/mp"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/sim"
	"thriftybarrier/internal/stats"
	"thriftybarrier/internal/workload"
)

// SensitivityRow is one point of a parameter sweep.
type SensitivityRow struct {
	Param  string
	Energy float64 // Thrifty normalized energy vs that point's Baseline
	Time   float64 // Thrifty span ratio
	Halt   float64 // Thrifty-Halt normalized energy
}

// SensitivityNodes sweeps the machine size: the savings depend on the
// imbalance, not the scale, so they should hold from 8 to 64 nodes while
// the flat barrier's check-in serialization grows with N.
func SensitivityNodes(seed uint64) []SensitivityRow {
	var rows []SensitivityRow
	spec := workload.FMM()
	for _, n := range []int{8, 16, 32, 64} {
		arch := core.DefaultArch().WithNodes(n)
		prog := spec.Build(n, seed)
		base := core.Simulate(arch, core.Baseline(), prog, false)
		thr := core.Simulate(arch, core.Thrifty(), prog, false)
		hlt := core.Simulate(arch, core.ThriftyHalt(), prog, false)
		nt := thr.Breakdown.Normalize(base.Breakdown)
		nh := hlt.Breakdown.Normalize(base.Breakdown)
		rows = append(rows, SensitivityRow{
			Param:  fmt.Sprintf("%d nodes", n),
			Energy: nt.TotalEnergy(), Time: nt.SpanRatio, Halt: nh.TotalEnergy(),
		})
	}
	return rows
}

// SensitivityTransition scales every sleep state's transition latency: the
// design's benefit must degrade gracefully as transitions approach the
// barrier stall times (the "slower hardware" what-if).
func SensitivityTransition(seed uint64) []SensitivityRow {
	var rows []SensitivityRow
	spec := workload.FMM()
	arch := core.DefaultArch()
	prog := spec.Build(arch.Nodes, seed)
	base := core.Simulate(arch, core.Baseline(), prog, false)
	for _, scale := range []float64{0.5, 1, 2, 4, 8} {
		states := power.Table3()
		for i := range states {
			states[i].Transition = sim.Cycles(float64(states[i].Transition) * scale)
		}
		opts := core.Thrifty()
		opts.States = states
		thr := core.Simulate(arch, opts, prog, false)
		n := thr.Breakdown.Normalize(base.Breakdown)
		rows = append(rows, SensitivityRow{
			Param:  fmt.Sprintf("%.1fx latency", scale),
			Energy: n.TotalEnergy(), Time: n.SpanRatio,
		})
	}
	return rows
}

// AblationTopology compares the paper's flat lock-protected counter with
// combining trees on a balanced program (where the flat barrier's O(N)
// check-in serialization dominates) and on Ocean.
func AblationTopology(arch core.Arch, seed uint64) []AblationRow {
	var rows []AblationRow
	balanced := core.UniformProgram(0x900, 10, func(instance, thread int) cpu.Segment {
		return cpu.Segment{Instructions: 1_000_000}
	})
	cases := []struct {
		name string
		prog core.Program
	}{
		{"balanced", balanced},
		{"Ocean", workload.Ocean().Build(arch.Nodes, seed)},
	}
	for _, c := range cases {
		base := core.Simulate(arch, core.Baseline(), c.prog, false)
		for _, arity := range []int{0, 4, 8} {
			opts := core.Thrifty()
			opts.TreeArity = arity
			name := "flat (paper)"
			if arity > 0 {
				name = fmt.Sprintf("tree-%d", arity)
			}
			res := core.Simulate(arch, opts, c.prog, false)
			n := res.Breakdown.Normalize(base.Breakdown)
			rows = append(rows, AblationRow{
				App: c.name, Variant: name,
				Energy: n.TotalEnergy(), Time: n.SpanRatio, Stats: res.Stats,
			})
		}
	}
	return rows
}

// AblationConfidence compares the paper's permanent cut-off with the
// confidence-estimator alternative it sketches as future work, on Ocean
// (where barriers destabilize and later re-stabilize).
func AblationConfidence(arch core.Arch, seed uint64) []AblationRow {
	spec := workload.Ocean()
	prog := spec.Build(arch.Nodes, seed)
	base := core.Simulate(arch, core.Baseline(), prog, false)
	var rows []AblationRow
	add := func(name string, opts core.Options) {
		res := core.Simulate(arch, opts, prog, false)
		n := res.Breakdown.Normalize(base.Breakdown)
		rows = append(rows, AblationRow{
			App: spec.Name, Variant: name,
			Energy: n.TotalEnergy(), Time: n.SpanRatio, Stats: res.Stats,
		})
	}
	add("cutoff (paper)", core.Thrifty())
	conf := core.Thrifty()
	conf.Cutoff = 0
	conf.Predictor.Confidence = true
	add("confidence 2-bit", conf)
	both := core.Thrifty()
	both.Predictor.Confidence = true
	add("cutoff+confidence", both)
	none := core.Thrifty()
	none.Cutoff = 0
	add("neither", none)
	return rows
}

// LockRow is one lock-experiment measurement.
type LockRow struct {
	Variant string
	Energy  float64
	Time    float64
	Idle    sim.Cycles
	Stats   locks.Stats
}

// LockExperiment runs the thrifty-lock extension under saturation and
// moderate contention.
func LockExperiment(seed uint64) (saturated, moderate []LockRow) {
	run := func(cfg locks.Config) []LockRow {
		base := locks.NewMachine(cfg, locks.SpinLock()).Run()
		var rows []LockRow
		for _, opts := range []locks.Options{locks.SpinLock(), locks.ThriftyLock(), locks.NaiveLock(), locks.OracleLock()} {
			res := locks.NewMachine(cfg, opts).Run()
			n := res.Breakdown.Normalize(base.Breakdown)
			rows = append(rows, LockRow{
				Variant: opts.Name,
				Energy:  n.TotalEnergy(), Time: n.SpanRatio,
				Idle: res.Stats.LockIdle, Stats: res.Stats,
			})
		}
		return rows
	}
	sat := locks.DefaultConfig()
	sat.Seed = seed
	sat.Threads = 24
	sat.MeanThink = 20 * sim.Microsecond
	sat.MeanHold = 30 * sim.Microsecond
	mod := locks.DefaultConfig()
	mod.Seed = seed
	mod.Threads = 12
	mod.MeanThink = 300 * sim.Microsecond
	mod.MeanHold = 20 * sim.Microsecond
	return run(sat), run(mod)
}

// MPRow is one message-passing-experiment measurement.
type MPRow struct {
	Variant string
	Energy  float64
	Time    float64
	Stats   mp.Stats
}

// MPExperiment runs the message-passing extension on an FMM-like phase
// program over the 64-node cluster.
func MPExperiment(seed uint64) []MPRow {
	cfg := mp.DefaultConfig()
	rng := sim.NewRNG(seed)
	prog := make(mp.Program, 48)
	for i := range prog {
		i := i
		baseAlt := []sim.Cycles{900 * sim.Microsecond, 1800 * sim.Microsecond, 950 * sim.Microsecond}
		base := baseAlt[i%3]
		straggler := rng.Intn(cfg.Nodes)
		pr := rng.Split(uint64(i))
		prog[i] = mp.Phase{
			PC: uint64(0x100 + i%3),
			Work: func(rank int) sim.Cycles {
				r := pr.Split(uint64(rank))
				d := float64(base) * (1 + 0.05*(2*r.Float64()-1))
				if rank == straggler {
					d *= 1.20
				}
				return sim.Cycles(d)
			},
		}
	}
	var rows []MPRow
	for _, alg := range []mp.Algorithm{mp.TreeBarrier, mp.DisseminationBarrier} {
		c := cfg
		c.Algorithm = alg
		base := mp.MustNewMachine(c, mp.Baseline()).RunParallel(prog, 1)
		for _, opts := range []mp.Options{mp.Baseline(), mp.Thrifty(), mp.Oracle()} {
			res := mp.MustNewMachine(c, opts).RunParallel(prog, 1)
			n := res.Breakdown.Normalize(base.Breakdown)
			rows = append(rows, MPRow{
				Variant: opts.Name + " (" + alg.String() + ")",
				Energy:  n.TotalEnergy(), Time: n.SpanRatio, Stats: res.Stats,
			})
		}
	}
	return rows
}

// RenderSensitivity formats a sweep.
func RenderSensitivity(title string, rows []SensitivityRow) string {
	t := stats.NewTable(title, "Point", "Thrifty energy", "Thrifty time", "Halt energy")
	for _, r := range rows {
		halt := "-"
		if r.Halt > 0 {
			halt = fmt.Sprintf("%.3f", r.Halt)
		}
		t.AddRowStrings(r.Param, fmt.Sprintf("%.3f", r.Energy), fmt.Sprintf("%.4f", r.Time), halt)
	}
	return t.String()
}

// RenderLocks formats the lock-extension results.
func RenderLocks(saturated, moderate []LockRow) string {
	render := func(title string, rows []LockRow) string {
		t := stats.NewTable(title, "Variant", "Energy", "Time", "LockIdle", "Sleeps", "PreWakes", "ReSleeps", "Disables")
		for _, r := range rows {
			total := 0
			for _, n := range r.Stats.Sleeps {
				total += n
			}
			t.AddRowStrings(r.Variant, fmt.Sprintf("%.3f", r.Energy), fmt.Sprintf("%.4f", r.Time),
				r.Idle.String(), fmt.Sprint(total), fmt.Sprint(r.Stats.PreWakes),
				fmt.Sprint(r.Stats.ReSleeps), fmt.Sprint(r.Stats.Disables))
		}
		return t.String()
	}
	return render("Extension: thrifty MCS lock, saturated (24 threads)", saturated) + "\n" +
		render("Extension: thrifty MCS lock, moderate contention (12 threads)", moderate)
}

// RenderMP formats the message-passing-extension results.
func RenderMP(rows []MPRow) string {
	t := stats.NewTable("Extension: thrifty barrier on a 64-node message-passing cluster",
		"Variant", "Energy", "Time", "Sleeps", "Early", "External", "Late", "Disables")
	for _, r := range rows {
		total := 0
		for _, n := range r.Stats.Sleeps {
			total += n
		}
		t.AddRowStrings(r.Variant, fmt.Sprintf("%.3f", r.Energy), fmt.Sprintf("%.4f", r.Time),
			fmt.Sprint(total), fmt.Sprint(r.Stats.EarlyWakes), fmt.Sprint(r.Stats.ExternalWakes),
			fmt.Sprint(r.Stats.LateWakes), fmt.Sprint(r.Stats.Disables))
	}
	return t.String()
}

// LockContentionSweep sweeps the contention level (think/hold ratio) of
// the thrifty MCS lock, showing where the savings appear and what they
// cost.
func LockContentionSweep(seed uint64) []SensitivityRow {
	var rows []SensitivityRow
	for _, think := range []sim.Cycles{400, 200, 100, 50, 20} {
		cfg := locks.DefaultConfig()
		cfg.Seed = seed
		cfg.Threads = 16
		cfg.MeanThink = think * sim.Microsecond
		cfg.MeanHold = 25 * sim.Microsecond
		base := locks.NewMachine(cfg, locks.SpinLock()).Run()
		thr := locks.NewMachine(cfg, locks.ThriftyLock()).Run()
		n := thr.Breakdown.Normalize(base.Breakdown)
		rows = append(rows, SensitivityRow{
			Param:  fmt.Sprintf("think %dus", int64(think)),
			Energy: n.TotalEnergy(), Time: n.SpanRatio,
		})
	}
	return rows
}

// BarrierLatencyRow is one point of the barrier-latency microbenchmark.
type BarrierLatencyRow struct {
	Nodes int
	Flat  sim.Cycles
	Tree4 sim.Cycles
	Tree8 sim.Cycles
}

// BarrierRoundLatency measures one warm barrier round-trip — all threads
// arrive simultaneously; how long until the last departure — on a
// simulated nodes-CPU machine with the given check-in arity (0 = the flat
// lock-protected counter of Figure 2). Coherence contention on the
// check-in line(s) is fully modeled, so this is the contended arrival
// cost a real multiprocessor would see.
func BarrierRoundLatency(nodes, arity int, seed uint64) sim.Cycles {
	arch := core.DefaultArch().WithNodes(nodes)
	opts := core.Baseline()
	opts.TreeArity = arity
	prog := core.UniformProgram(0x1, 3, func(instance, thread int) cpu.Segment {
		return cpu.Segment{Instructions: 2000} // ~1us: simultaneous arrivals
	})
	res := core.Simulate(arch, opts, prog, true)
	// Use the last episode (warm caches): release-to-last-departure
	// plus arrival serialization = span of the episode beyond compute.
	ep := res.Episodes[len(res.Episodes)-1]
	first := ep.Arrive[0]
	for _, a := range ep.Arrive {
		if a < first {
			first = a
		}
	}
	last := ep.Depart[0]
	for _, d := range ep.Depart {
		if d > last {
			last = d
		}
	}
	return last - first
}

// BarrierLatency measures the pure barrier round-trip for the flat
// (Figure 2) check-in versus combining trees, across machine sizes. This
// quantifies the O(N) counter serialization the topology ablation exploits
// (cf. Kumar et al., discussed in §6).
func BarrierLatency(seed uint64) []BarrierLatencyRow {
	var rows []BarrierLatencyRow
	for _, n := range []int{8, 16, 32, 64} {
		rows = append(rows, BarrierLatencyRow{
			Nodes: n,
			Flat:  BarrierRoundLatency(n, 0, seed),
			Tree4: BarrierRoundLatency(n, 4, seed),
			Tree8: BarrierRoundLatency(n, 8, seed),
		})
	}
	return rows
}

// RenderBarrierLatency formats the microbenchmark.
func RenderBarrierLatency(rows []BarrierLatencyRow) string {
	t := stats.NewTable("Barrier latency microbenchmark (simultaneous arrivals, first arrival to last departure)",
		"Nodes", "Flat (paper)", "Tree-4", "Tree-8")
	for _, r := range rows {
		t.AddRowStrings(fmt.Sprint(r.Nodes), r.Flat.String(), r.Tree4.String(), r.Tree8.String())
	}
	return t.String()
}
