// Benchmarks that regenerate every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus microbenchmarks
// of the underlying substrates and of the public goroutine barrier.
//
// The table/figure benchmarks report the headline quantities as custom
// metrics (e.g. %savings, slowdown) so a bench run doubles as a compact
// reproduction report; the full rendered output comes from cmd/thriftybench.
package thriftybarrier_test

import (
	"strconv"
	"sync"
	"testing"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/harness"
	"thriftybarrier/internal/harness/microbench"
	"thriftybarrier/internal/locks"
	"thriftybarrier/internal/mem/coherence"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/predict"
	"thriftybarrier/internal/sim"
	"thriftybarrier/internal/workload"
	"thriftybarrier/thrifty"
)

// --- Table and figure regeneration benches ---

// BenchmarkTable1ArchConfig assembles the Table 1 machine (all substrates)
// and verifies its static configuration.
func BenchmarkTable1ArchConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		arch := core.DefaultArch()
		m, err := core.NewParallelMachine(arch, core.Baseline())
		if err != nil || m.Topology() != core.TopologyFlat || arch.Regions() != 1 {
			b.Fatal("wrong machine shape")
		}
	}
}

// BenchmarkTable2Imbalance measures the Baseline barrier imbalance of all
// ten applications on the 64-node machine and reports the target-app mean.
func BenchmarkTable2Imbalance(b *testing.B) {
	arch := core.DefaultArch()
	var mean float64
	for i := 0; i < b.N; i++ {
		rows := harness.Table2(arch, 1)
		var sum float64
		for _, r := range rows {
			sum += r.Measured
		}
		mean = sum / float64(len(rows))
	}
	b.ReportMetric(mean*100, "%mean-imbalance")
}

// BenchmarkTable3SleepStates builds the calibrated power model and reports
// the spin/compute power ratio the paper measures at ~85%.
func BenchmarkTable3SleepStates(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		m := power.DefaultModel()
		ratio = m.SpinPower() / m.ComputePower()
	}
	b.ReportMetric(ratio*100, "%spin/compute")
}

// BenchmarkFigure3BITStability runs the FMM variability experiment and
// reports how much more stable BIT is than BST (coefficient-of-variation
// ratio, averaged over the three barriers).
func BenchmarkFigure3BITStability(b *testing.B) {
	arch := core.DefaultArch()
	var ratio float64
	for i := 0; i < b.N; i++ {
		d := harness.Figure3(arch, 1, 11, 4, 4)
		var sum float64
		for j := range d.BarrierLabels {
			sum += d.BSTCoefVar[j] / d.BITCoefVar[j]
		}
		ratio = sum / float64(len(d.BarrierLabels))
	}
	b.ReportMetric(ratio, "BSTvar/BITvar")
}

// runMatrix executes the full five-configuration, ten-application matrix.
func runMatrix(b *testing.B) []harness.AppRun {
	b.Helper()
	return harness.RunAll(core.DefaultArch(), 1)
}

// BenchmarkFigure5Energy regenerates the normalized-energy figure and
// reports the Thrifty target-app savings (paper: ~17%).
func BenchmarkFigure5Energy(b *testing.B) {
	var savings, haltSavings float64
	for i := 0; i < b.N; i++ {
		apps := runMatrix(b)
		for _, s := range harness.Summarize(apps) {
			switch s.Config {
			case "Thrifty":
				savings = s.AvgEnergySavings
			case "Thrifty-Halt":
				haltSavings = s.AvgEnergySavings
			}
		}
	}
	b.ReportMetric(savings*100, "%savings-thrifty")
	b.ReportMetric(haltSavings*100, "%savings-halt")
}

// BenchmarkFigure6ExecTime regenerates the normalized-execution-time
// figure and reports the Thrifty target-app slowdown (paper: ~2%).
func BenchmarkFigure6ExecTime(b *testing.B) {
	var slowdown, worst float64
	for i := 0; i < b.N; i++ {
		apps := runMatrix(b)
		for _, s := range harness.Summarize(apps) {
			if s.Config == "Thrifty" {
				slowdown = s.AvgSlowdown
				worst = s.WorstSlowdown
			}
		}
	}
	b.ReportMetric(slowdown*100, "%slowdown-avg")
	b.ReportMetric(worst*100, "%slowdown-worst")
}

// BenchmarkAblationCutoff reproduces the Ocean cut-off study (§5.2:
// ~12% degradation without, <=3.5% with).
func BenchmarkAblationCutoff(b *testing.B) {
	arch := core.DefaultArch()
	var withCut, withoutCut float64
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationCutoff(arch, 1) {
			switch r.Variant {
			case "cutoff=10%":
				withCut = r.Time
			case "cutoff=off":
				withoutCut = r.Time
			}
		}
	}
	b.ReportMetric((withoutCut-1)*100, "%slowdown-nocutoff")
	b.ReportMetric((withCut-1)*100, "%slowdown-cutoff")
}

// BenchmarkAblationWakeup compares the three wake-up mechanisms (§3.3).
func BenchmarkAblationWakeup(b *testing.B) {
	arch := core.DefaultArch()
	var hybrid, internal float64
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationWakeup(arch, 1) {
			if r.App == "Ocean" {
				switch r.Variant {
				case "hybrid":
					hybrid = r.Time
				case "internal":
					internal = r.Time
				}
			}
		}
	}
	b.ReportMetric((hybrid-1)*100, "%ocean-hybrid")
	b.ReportMetric((internal-1)*100, "%ocean-internal")
}

// BenchmarkAblationPredictor compares BIT predictor policies (§3.2).
func BenchmarkAblationPredictor(b *testing.B) {
	arch := core.DefaultArch()
	var lastValue, directBST float64
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationPredictor(arch, 1) {
			if r.App == "FMM" {
				switch r.Variant {
				case "last-value (paper)":
					lastValue = r.Energy
				case "direct-BST":
					directBST = r.Energy
				}
			}
		}
	}
	b.ReportMetric(lastValue*100, "%energy-lastvalue")
	b.ReportMetric(directBST*100, "%energy-directBST")
}

// BenchmarkAblationPreempt exercises the underprediction filter (§3.4.2).
func BenchmarkAblationPreempt(b *testing.B) {
	arch := core.DefaultArch()
	var skipped uint64
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationPreempt(arch, 1) {
			if r.Variant == "filter=4x" {
				skipped = r.Stats.SkippedUpdates
			}
		}
	}
	b.ReportMetric(float64(skipped), "skipped-updates")
}

// --- Substrate microbenchmarks ---

func BenchmarkEngineScheduleFire(b *testing.B) {
	microbench.EngineScheduleFire(0)(b)
}

// BenchmarkEngineSteadyState is the full sim half of the perf-trajectory
// suite: schedule/fire against deep pending queues and the cancel path.
// All of it must report 0 allocs/op (the flat-arena acceptance criterion).
func BenchmarkEngineSteadyState(b *testing.B) {
	for _, s := range microbench.SimSpecs() {
		b.Run(s.Name, s.Bench)
	}
}

func BenchmarkPredictorPredictUpdate(b *testing.B) {
	t := predict.NewTable(predict.DefaultConfig())
	t.Update(0x100, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bit, _ := t.Predict(0x100)
		t.Update(0x100, bit+1)
	}
}

func newBenchProtocol() *coherence.Protocol {
	cfg := coherence.DefaultConfig()
	return coherence.New(cfg, noc.New(noc.DefaultConfig()), dram.NewPlacement(cfg.Nodes, 4096))
}

func BenchmarkCoherenceReadHit(b *testing.B) {
	p := newBenchProtocol()
	p.Read(0, 0x1000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Read(0, 0x1000, sim.Cycles(i))
	}
}

func BenchmarkCoherenceRemoteFill(b *testing.B) {
	p := newBenchProtocol()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stream through a large region: mostly misses.
		p.Read(i&63, uint64(i)<<6, sim.Cycles(i))
	}
}

func BenchmarkCoherenceInvalidationFanout(b *testing.B) {
	p := newBenchProtocol()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 8; n++ {
			p.Read(n, 0xF000, sim.Cycles(i*100+n))
		}
		p.Write(0, 0xF000, sim.Cycles(i*100+50))
	}
}

// BenchmarkCoherenceFlushForSleep dirties a node's 64-line working set and
// flushes it before a gated sleep, with the directory populated by every
// other node's resident lines: at the 8-node region size the sharded core
// machine runs, and at the paper's 64 nodes. The flush walks the node's
// own L2, so ns/op should not grow with the directory.
func BenchmarkCoherenceFlushForSleep(b *testing.B) {
	for _, nodes := range []int{8, 64} {
		b.Run("nodes-"+strconv.Itoa(nodes), func(b *testing.B) {
			cfg := coherence.DefaultConfig()
			cfg.Nodes = nodes
			ncfg := noc.DefaultConfig()
			ncfg.Nodes = nodes
			p := coherence.New(cfg, noc.New(ncfg), dram.NewPlacement(nodes, 4096))
			// Every node fills half its L2 with private lines, one Exclusive
			// directory entry each.
			half := cfg.L2.SizeBytes / cfg.L2.LineBytes / 2
			for n := 0; n < nodes; n++ {
				for i := 0; i < half; i++ {
					p.Read(n, uint64(n+1)<<24|uint64(i)<<6, 0)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := sim.Cycles(i) * 1000
				for l := 0; l < 64; l++ {
					p.Write(0, uint64(l)<<6, now)
				}
				p.FlushForSleep(0)
			}
		})
	}
}

func BenchmarkNoCLatency(b *testing.B) {
	n := noc.New(noc.DefaultConfig())
	var sink sim.Cycles
	for i := 0; i < b.N; i++ {
		sink += n.Latency(i&63, (i>>6)&63, 72)
	}
	_ = sink
}

// BenchmarkBarrierEpisode measures one full simulated barrier episode
// (64 arrivals, prediction, sleep selection, release, wake-ups).
func BenchmarkBarrierEpisode(b *testing.B) {
	arch := core.DefaultArch()
	work := func(instance, thread int) cpu.Segment {
		insns := int64(200_000)
		if thread == instance%64 {
			insns += 400_000
		}
		return cpu.Segment{Instructions: insns}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += 16 {
		prog := core.UniformProgram(0x100, 16, work)
		core.Simulate(arch, core.Thrifty(), prog, false)
	}
}

// BenchmarkSimulatedAppThrifty measures a full FMM run under Thrifty.
func BenchmarkSimulatedAppThrifty(b *testing.B) {
	arch := core.DefaultArch()
	spec := workload.FMM()
	prog := spec.Build(arch.Nodes, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Simulate(arch, core.Thrifty(), prog, false)
	}
}

// --- Public goroutine barrier benchmarks ---

// benchBarrier runs rounds of an n-party barrier built by mk.
func benchBarrier(b *testing.B, parties int, wait func()) {
	var wg sync.WaitGroup
	rounds := b.N
	b.ResetTimer()
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				wait()
			}
		}()
	}
	wg.Wait()
}

func BenchmarkGoroutineBarrierThrifty(b *testing.B) {
	for _, parties := range []int{2, 8} {
		parties := parties
		b.Run(strconv.Itoa(parties), func(b *testing.B) {
			bar := thrifty.New(parties, thrifty.Options{})
			benchBarrier(b, parties, func() { bar.WaitSite(1) })
		})
	}
}

// BenchmarkGoroutineBarrierChannels is the conventional comparator: a
// central-channel barrier that always parks.
func BenchmarkGoroutineBarrierChannels(b *testing.B) {
	for _, parties := range []int{2, 8} {
		parties := parties
		b.Run(strconv.Itoa(parties), func(b *testing.B) {
			bar := newChanBarrier(parties)
			benchBarrier(b, parties, bar.wait)
		})
	}
}

// BenchmarkBarrierArrival is the tentpole acceptance comparison: arrival
// throughput at 64 parties, measured where multiprocessor contention is
// actually modeled — the simulated 64-CPU machine, whose coherence
// protocol charges every check-in on the flat lock-protected counter a
// serialized trip to one hot line. The mutex baseline is that flat
// counter (the paper's Figure 2); the combining tree spreads check-ins
// across per-subgroup lines. The headline metric is rounds/Mcycle
// (simulated throughput): the tree must show ≥2× the baseline. The host
// runtime analogues are BenchmarkArrivalPath (package thrifty) and
// BenchmarkBarrierRendezvous below, whose outcomes depend on real host
// parallelism that CI containers may not have.
func BenchmarkBarrierArrival(b *testing.B) {
	for _, c := range []struct {
		name  string
		arity int
	}{
		{"mutex-flat-64", 0},
		{"tree-radix4-64", 4},
		{"tree-radix8-64", 8},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var cyc sim.Cycles
			for i := 0; i < b.N; i++ {
				cyc = harness.BarrierRoundLatency(64, c.arity, 1)
			}
			b.ReportMetric(float64(cyc), "cycles/round")
			b.ReportMetric(1e6/float64(cyc), "rounds/Mcycle")
		})
	}
}

// BenchmarkBarrierRendezvous runs full rounds (arrive, wait, wake) of the
// lock-free flat word and the combining tree against a mutex-serialized
// arrival with the pre-rewrite shape, at matching party counts. On small
// hosts these numbers are dominated by waking the parked parties, which
// every implementation pays alike; the arrival-path comparison is
// BenchmarkBarrierArrival in package thrifty.
func BenchmarkBarrierRendezvous(b *testing.B) {
	for _, s := range microbench.RuntimeSpecs() {
		b.Run(s.Name, s.Bench)
	}
}

// BenchmarkManyBarriers is the wake-up fabric acceptance sweep: the
// internal wake-up arm/cancel pair with 100 … 1M other concurrent
// barrier groups' wake-ups resident, across party counts, timing wheel
// versus the per-waiter runtime-timer baseline it replaced. The wheel's
// arm and cancel are O(1) shard-lock sections, so its ns/armcancel must
// stay flat across the sweep — within 1.5× of the 10k figure even at a
// million resident barriers — with 0 allocs/op (acceptance criteria);
// the baseline pays an O(log n) runtime timer-heap sift per op and drops
// out of the sweep past 10k, where a million live time.Timer values stop
// being a viable comparison. Each run also reports p99/p999 internal
// wake-up delivery lateness (p99-wake-us, p999-wake-us).
func BenchmarkManyBarriers(b *testing.B) {
	for _, barriers := range []int{100, 1000, 10000, 100_000, 1_000_000} {
		for _, parties := range []int{4, 16, 64} {
			suffix := strconv.Itoa(parties)
			name := "wheel-" + microbench.SizeLabel(barriers) + "x" + suffix
			b.Run(name, microbench.WheelManyBarriers(barriers, parties))
			if barriers <= 10000 {
				name = "timer-" + microbench.SizeLabel(barriers) + "x" + suffix
				b.Run(name, microbench.TimerManyBarriers(barriers, parties))
			}
		}
	}
}

// chanBarrier is a plain mutex+channel barrier (the Baseline analogue).
type chanBarrier struct {
	mu      sync.Mutex
	parties int
	count   int
	ch      chan struct{}
}

func newChanBarrier(parties int) *chanBarrier {
	return &chanBarrier{parties: parties, ch: make(chan struct{})}
}

func (b *chanBarrier) wait() {
	b.mu.Lock()
	b.count++
	if b.count == b.parties {
		b.count = 0
		old := b.ch
		b.ch = make(chan struct{})
		b.mu.Unlock()
		close(old)
		return
	}
	ch := b.ch
	b.mu.Unlock()
	<-ch
}

// --- Extension and sensitivity benches ---

// BenchmarkAblationTopology compares flat and combining-tree check-in.
func BenchmarkAblationTopology(b *testing.B) {
	arch := core.DefaultArch()
	var flat, tree float64
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationTopology(arch, 1) {
			if r.App == "balanced" {
				switch r.Variant {
				case "flat (paper)":
					flat = r.Time
				case "tree-8":
					tree = r.Time
				}
			}
		}
	}
	b.ReportMetric(flat, "flat-time")
	b.ReportMetric(tree, "tree8-time")
}

// BenchmarkAblationConfidence compares the cut-off with the 2-bit
// confidence estimator on Ocean.
func BenchmarkAblationConfidence(b *testing.B) {
	arch := core.DefaultArch()
	var cutoff, conf float64
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationConfidence(arch, 1) {
			switch r.Variant {
			case "cutoff (paper)":
				cutoff = r.Time
			case "confidence 2-bit":
				conf = r.Time
			}
		}
	}
	b.ReportMetric((cutoff-1)*100, "%slowdown-cutoff")
	b.ReportMetric((conf-1)*100, "%slowdown-confidence")
}

// BenchmarkSensitivityNodes sweeps machine sizes.
func BenchmarkSensitivityNodes(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows := harness.SensitivityNodes(1)
		last = rows[len(rows)-1].Energy
	}
	b.ReportMetric(last*100, "%energy-64nodes")
}

// BenchmarkSensitivityTransition sweeps transition-latency scaling.
func BenchmarkSensitivityTransition(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows := harness.SensitivityTransition(1)
		worst = rows[len(rows)-1].Energy
	}
	b.ReportMetric(worst*100, "%energy-8xlatency")
}

// BenchmarkExtensionLocks runs the thrifty-MCS-lock experiment.
func BenchmarkExtensionLocks(b *testing.B) {
	var energy, slowdown float64
	for i := 0; i < b.N; i++ {
		sat, _ := harness.LockExperiment(1)
		energy = sat[1].Energy
		slowdown = sat[1].Time
	}
	b.ReportMetric(energy*100, "%energy-saturated")
	b.ReportMetric((slowdown-1)*100, "%slowdown-saturated")
}

// BenchmarkExtensionMP runs the message-passing-cluster experiment.
func BenchmarkExtensionMP(b *testing.B) {
	var energy float64
	for i := 0; i < b.N; i++ {
		rows := harness.MPExperiment(1)
		energy = rows[1].Energy
	}
	b.ReportMetric(energy*100, "%energy-thrifty")
}

// BenchmarkLockAcquireRelease measures one simulated lock handoff.
func BenchmarkLockAcquireRelease(b *testing.B) {
	cfg := locks.DefaultConfig()
	cfg.OpsPerThread = 10
	b.ResetTimer()
	ops := 0
	for ops < b.N {
		res := locks.NewMachine(cfg, locks.ThriftyLock()).Run()
		ops += res.Stats.Acquires
	}
}

// BenchmarkAblationConventional compares unconditional-halt and
// spin-then-halt against Thrifty (§5.1's related-technique argument).
func BenchmarkAblationConventional(b *testing.B) {
	arch := core.DefaultArch()
	var uncond, spinThen, thrifty float64
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationConventional(arch, 1) {
			if r.App == "FMM" {
				switch r.Variant {
				case "Uncond-Halt":
					uncond = r.Energy
				case "SpinThenHalt":
					spinThen = r.Energy
				case "Thrifty":
					thrifty = r.Energy
				}
			}
		}
	}
	b.ReportMetric(uncond*100, "%energy-uncond")
	b.ReportMetric(spinThen*100, "%energy-spinthenhalt")
	b.ReportMetric(thrifty*100, "%energy-thrifty")
}

// BenchmarkAblationDVFS compares barrier sleeping with slack-reclamation
// DVFS (§1's alternative) under rotating criticality.
func BenchmarkAblationDVFS(b *testing.B) {
	arch := core.DefaultArch()
	var dvfsTime, thriftyTime float64
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationDVFS(arch, 1) {
			if r.App == "Volrend" {
				switch r.Variant {
				case "DVFS":
					dvfsTime = r.Time
				case "Thrifty":
					thriftyTime = r.Time
				}
			}
		}
	}
	b.ReportMetric((dvfsTime-1)*100, "%slowdown-dvfs")
	b.ReportMetric((thriftyTime-1)*100, "%slowdown-thrifty")
}
