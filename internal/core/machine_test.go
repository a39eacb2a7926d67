package core

import (
	"math"
	"testing"

	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/sim"
)

// testArch is a small 8-node machine for fast tests.
func testArch() Arch {
	a := DefaultArch().WithNodes(8)
	a.Seed = 7
	return a
}

// imbalancedWork builds a program where thread 0 is always the straggler:
// every other thread finishes its compute in base cycles, thread 0 in
// base+extra.
func imbalancedWork(base, extra int64) func(instance, thread int) cpu.Segment {
	return func(instance, thread int) cpu.Segment {
		insns := base
		if thread == 0 {
			insns += extra
		}
		return cpu.Segment{Instructions: insns}
	}
}

// runProg runs prog on the sequential engine, with episode records when
// record is set.
func runProg(t *testing.T, arch Arch, opts Options, prog Program, record bool) Result {
	t.Helper()
	return parallelRun(t, arch, opts, prog, 0, record).Result
}

func TestOptionsValidate(t *testing.T) {
	for _, o := range Configurations() {
		if err := o.Validate(); err != nil {
			t.Errorf("%s invalid: %v", o.Name, err)
		}
	}
	bad := Thrifty()
	bad.Cutoff = -1
	if bad.Validate() == nil {
		t.Error("negative cutoff accepted")
	}
	bad = Thrifty()
	bad.Oracle = true
	bad.BSTDirect = true
	if bad.Validate() == nil {
		t.Error("oracle+BST accepted")
	}
}

func TestConfigurationsOrder(t *testing.T) {
	names := []string{"Baseline", "Thrifty-Halt", "Oracle-Halt", "Thrifty", "Ideal"}
	cfgs := Configurations()
	for i, n := range names {
		if cfgs[i].Name != n {
			t.Fatalf("config %d = %s, want %s", i, cfgs[i].Name, n)
		}
	}
}

func TestBaselineBarrierCompletes(t *testing.T) {
	// IPC 2 => base time = insns/2 ns; 200k insns = 100us compute.
	prog := UniformProgram(0x100, 5, imbalancedWork(200_000, 100_000))
	res := runProg(t, testArch(), Baseline(), prog, true)
	if res.Span <= 0 {
		t.Fatal("run did not advance time")
	}
	if res.Stats.Episodes != 5 {
		t.Fatalf("episodes = %d, want 5", res.Stats.Episodes)
	}
	if len(res.Episodes) != 5 {
		t.Fatalf("records = %d, want 5", len(res.Episodes))
	}
	// Barrier semantics: every departure of episode i follows its release,
	// and every arrival of episode i+1 follows every departure of i.
	for i, ep := range res.Episodes {
		for th, d := range ep.Depart {
			if d < ep.ReleaseAt {
				t.Fatalf("ep %d thread %d departed at %d before release %d", i, th, d, ep.ReleaseAt)
			}
		}
		if i > 0 {
			prev := res.Episodes[i-1]
			for th, a := range ep.Arrive {
				for _, d := range prev.Depart {
					_ = d
				}
				if a <= prev.ReleaseAt {
					t.Fatalf("ep %d thread %d arrived at %d before previous release %d", i, th, a, prev.ReleaseAt)
				}
			}
		}
	}
}

func TestBaselineSpinTimeMatchesImbalance(t *testing.T) {
	// Thread 0 lags by 100us per phase; the other 7 threads spin ~100us.
	prog := UniformProgram(0x100, 4, imbalancedWork(100_000, 200_000))
	res := runProg(t, testArch(), Baseline(), prog, false)
	spin := res.Breakdown.Time[sim.StateSpin]
	// 7 threads * 4 phases * ~100us = ~2.8ms of aggregate spin.
	lo, hi := 7*4*80*sim.Microsecond, 7*4*120*sim.Microsecond
	if spin < lo || spin > hi {
		t.Fatalf("aggregate spin = %v, want within [%v,%v]", spin, lo, hi)
	}
	if res.Stats.Sleeps["Sleep1 (Halt)"] != 0 {
		t.Fatal("baseline slept")
	}
}

func TestThriftySleepsAfterWarmup(t *testing.T) {
	prog := UniformProgram(0x100, 10, imbalancedWork(100_000, 400_000)) // ~200us stall
	res := runProg(t, testArch(), Thrifty(), prog, false)
	total := 0
	for _, n := range res.Stats.Sleeps {
		total += n
	}
	if total == 0 {
		t.Fatal("thrifty never slept")
	}
	// Warm-up: the first instance must spin (no history).
	if res.Stats.Spins < 7 {
		t.Fatalf("spins = %d, want >= 7 (warm-up instance)", res.Stats.Spins)
	}
	// With a 200us stall, the deepest state (needs 70us round trip) fits.
	if res.Stats.Sleeps["Sleep3"] == 0 {
		t.Fatalf("deep state never selected: %v", res.Stats.Sleeps)
	}
}

func TestThriftySavesEnergyOnImbalancedProgram(t *testing.T) {
	prog := UniformProgram(0x100, 12, imbalancedWork(100_000, 500_000))
	base := runProg(t, testArch(), Baseline(), prog, false)
	thr := runProg(t, testArch(), Thrifty(), prog, false)
	n := thr.Breakdown.Normalize(base.Breakdown)
	if n.TotalEnergy() >= 0.95 {
		t.Fatalf("thrifty normalized energy = %.3f, want clear savings", n.TotalEnergy())
	}
	// Performance must stay close to baseline.
	if n.SpanRatio > 1.05 {
		t.Fatalf("thrifty slowdown = %.3f, want <= 1.05", n.SpanRatio)
	}
}

func TestThriftyHaltSavesLessThanThrifty(t *testing.T) {
	prog := UniformProgram(0x100, 12, imbalancedWork(100_000, 500_000))
	base := runProg(t, testArch(), Baseline(), prog, false)
	halt := runProg(t, testArch(), ThriftyHalt(), prog, false)
	full := runProg(t, testArch(), Thrifty(), prog, false)
	eHalt := halt.Breakdown.Normalize(base.Breakdown).TotalEnergy()
	eFull := full.Breakdown.Normalize(base.Breakdown).TotalEnergy()
	if eFull >= eHalt {
		t.Fatalf("Thrifty (%.3f) not better than Thrifty-Halt (%.3f)", eFull, eHalt)
	}
}

func TestOracleHaltNeverSlowsDown(t *testing.T) {
	prog := UniformProgram(0x100, 8, imbalancedWork(100_000, 300_000))
	base := runProg(t, testArch(), Baseline(), prog, false)
	oracle := runProg(t, testArch(), OracleHalt(), prog, false)
	n := oracle.Breakdown.Normalize(base.Breakdown)
	// Perfect wake-up: execution time within measurement noise of baseline.
	if math.Abs(n.SpanRatio-1) > 0.005 {
		t.Fatalf("oracle span ratio = %.4f, want ~1", n.SpanRatio)
	}
	if n.TotalEnergy() >= 1 {
		t.Fatalf("oracle saved no energy (%.3f)", n.TotalEnergy())
	}
	if oracle.Stats.OracleSleeps == 0 {
		t.Fatal("oracle never slept")
	}
}

func TestIdealIsLowerBound(t *testing.T) {
	prog := UniformProgram(0x100, 10, imbalancedWork(100_000, 500_000))
	base := runProg(t, testArch(), Baseline(), prog, false)
	var energies []float64
	for _, opts := range Configurations() {
		r := runProg(t, testArch(), opts, prog, false)
		energies = append(energies, r.Breakdown.Normalize(base.Breakdown).TotalEnergy())
	}
	ideal := energies[4]
	for i, e := range energies {
		if ideal > e+1e-9 {
			t.Fatalf("Ideal (%.3f) not <= %s (%.3f)", ideal, Configurations()[i].Name, e)
		}
	}
	if energies[0] < 0.999 {
		t.Fatalf("Baseline not ~1.0: %.3f", energies[0])
	}
}

func TestBalancedProgramNearBaseline(t *testing.T) {
	// No imbalance: stalls are tiny, thrifty must not sleep or slow down.
	prog := UniformProgram(0x100, 8, imbalancedWork(200_000, 0))
	base := runProg(t, testArch(), Baseline(), prog, false)
	thr := runProg(t, testArch(), Thrifty(), prog, false)
	n := thr.Breakdown.Normalize(base.Breakdown)
	if n.SpanRatio > 1.02 {
		t.Fatalf("balanced program slowdown = %.3f", n.SpanRatio)
	}
	if n.TotalEnergy() > 1.02 {
		t.Fatalf("balanced program energy = %.3f", n.TotalEnergy())
	}
}

func TestNonRepeatingBarriersNeverSleep(t *testing.T) {
	// FFT/Cholesky behaviour: every instance has a distinct PC, so the
	// PC-indexed predictor stays cold and Thrifty behaves like Baseline.
	prog := make(SliceProgram, 6)
	for i := range prog {
		i := i
		prog[i] = PhaseSpec{
			PC:            uint64(0x1000 + i*8),
			Segment:       func(th int) cpu.Segment { return imbalancedWork(100_000, 300_000)(i, th) },
			PreemptThread: -1,
		}
	}
	res := runProg(t, testArch(), Thrifty(), prog, false)
	total := 0
	for _, n := range res.Stats.Sleeps {
		total += n
	}
	if total != 0 {
		t.Fatalf("slept %d times with non-repeating PCs", total)
	}
	if res.Stats.PredictorMisses == 0 {
		t.Fatal("predictor was never consulted")
	}
}

func TestBITMeasurementMatchesRecords(t *testing.T) {
	prog := UniformProgram(0x100, 6, imbalancedWork(150_000, 150_000))
	res := runProg(t, testArch(), Baseline(), prog, true)
	var prevRelease sim.Cycles
	for i, ep := range res.Episodes {
		wantBIT := ep.ReleaseAt - prevRelease
		if ep.BIT != wantBIT {
			t.Fatalf("ep %d BIT = %v, want %v (release-to-release)", i, ep.BIT, wantBIT)
		}
		prevRelease = ep.ReleaseAt
	}
}

func TestBRTSReconstructionIsExact(t *testing.T) {
	// The no-global-clock bookkeeping (§3.2.1) must reconstruct release
	// timestamps exactly: the sum of BITs equals the last release time.
	prog := UniformProgram(0x100, 6, imbalancedWork(150_000, 150_000))
	m, err := NewParallelMachine(testArch(), Thrifty())
	if err != nil {
		t.Fatal(err)
	}
	m.SetRecording(true)
	res := m.Run(prog, 0)
	var sum sim.Cycles
	for _, ep := range res.Episodes {
		sum += ep.BIT
	}
	last := res.Episodes[len(res.Episodes)-1]
	if sum != last.ReleaseAt {
		t.Fatalf("sum of BITs = %v, last release = %v", sum, last.ReleaseAt)
	}
	for th, nd := range m.nodes {
		if nd.brts != last.ReleaseAt {
			t.Fatalf("thread %d BRTS = %v, want %v", th, nd.brts, last.ReleaseAt)
		}
	}
}

func TestDeterminism(t *testing.T) {
	prog := UniformProgram(0x100, 8, imbalancedWork(100_000, 250_000))
	a := runProg(t, testArch(), Thrifty(), prog, true)
	b := runProg(t, testArch(), Thrifty(), prog, true)
	if a.Span != b.Span {
		t.Fatalf("spans differ: %v vs %v", a.Span, b.Span)
	}
	if math.Abs(a.Breakdown.TotalEnergy()-b.Breakdown.TotalEnergy()) > 1e-12 {
		t.Fatal("energies differ across identical runs")
	}
	for i := range a.Episodes {
		if a.Episodes[i].ReleaseAt != b.Episodes[i].ReleaseAt {
			t.Fatalf("episode %d release differs", i)
		}
	}
}

func TestEnergyTimeConservation(t *testing.T) {
	// Every CPU is in exactly one state from start to its finish; summed
	// state time must be close to nodes x span (within the slack of the
	// final phase where threads finish at slightly different times).
	prog := UniformProgram(0x100, 6, imbalancedWork(100_000, 300_000))
	for _, opts := range Configurations() {
		res := runProg(t, testArch(), opts, prog, false)
		total := res.Breakdown.TotalTime()
		upper := sim.Cycles(8) * res.Span
		if total > upper {
			t.Fatalf("%s: summed state time %v exceeds nodes*span %v", opts.Name, total, upper)
		}
		if float64(total) < 0.90*float64(upper) {
			t.Fatalf("%s: summed state time %v far below nodes*span %v (accounting hole)", opts.Name, total, upper)
		}
	}
}

func TestCutoffDisablesOnSwingingIntervals(t *testing.T) {
	// Ocean pathology: intervals swing so predictions overshoot wildly;
	// with internal-only wake-up lateness is unbounded, and the cut-off
	// must kick in and disable prediction.
	long := int64(600_000) // ~300us compute
	short := int64(40_000) // ~20us compute
	prog := UniformProgram(0x100, 16, func(instance, thread int) cpu.Segment {
		insns := short
		if instance%2 == 0 {
			insns = long
		}
		if thread == 0 {
			insns += insns / 2
		}
		return cpu.Segment{Instructions: insns}
	})
	opts := Thrifty()
	opts.Wakeup = WakeupInternal
	res := runProg(t, testArch(), opts, prog, false)
	if res.Stats.Disables == 0 {
		t.Fatalf("cut-off never triggered: %+v", res.Stats)
	}

	// Without the cut-off the same program must suffer more late wakes.
	noCut := opts
	noCut.Cutoff = 0
	resNo := runProg(t, testArch(), noCut, prog, false)
	if resNo.Stats.LateWakes <= res.Stats.LateWakes {
		t.Fatalf("late wakes with cutoff %d, without %d — cutoff not protective",
			res.Stats.LateWakes, resNo.Stats.LateWakes)
	}
}

func TestExternalWakeupBoundsLateness(t *testing.T) {
	// Same swinging program under hybrid wake-up: lateness is bounded by
	// the exit transition, so the span must not blow up versus baseline.
	long, short := int64(600_000), int64(40_000)
	work := func(instance, thread int) cpu.Segment {
		insns := short
		if instance%2 == 0 {
			insns = long
		}
		if thread == 0 {
			insns += insns / 2
		}
		return cpu.Segment{Instructions: insns}
	}
	prog := UniformProgram(0x100, 16, work)
	base := runProg(t, testArch(), Baseline(), prog, false)
	hybrid := Thrifty()
	hybrid.Cutoff = 0 // isolate the wake-up mechanism
	resH := runProg(t, testArch(), hybrid, prog, false)
	internal := hybrid
	internal.Wakeup = WakeupInternal
	resI := runProg(t, testArch(), internal, prog, false)
	ratioH := float64(resH.Span) / float64(base.Span)
	ratioI := float64(resI.Span) / float64(base.Span)
	if ratioH >= ratioI {
		t.Fatalf("hybrid (%.3f) not faster than internal-only (%.3f) on adversarial program", ratioH, ratioI)
	}
}

func TestPreemptionInflatesOneInterval(t *testing.T) {
	prog := make(SliceProgram, 8)
	work := imbalancedWork(100_000, 100_000)
	for i := range prog {
		i := i
		prog[i] = PhaseSpec{
			PC:            0x100,
			Segment:       func(th int) cpu.Segment { return work(i, th) },
			PreemptThread: -1,
		}
	}
	// Preempt thread 3 in phase 4 for 2ms.
	prog[4].PreemptThread = 3
	prog[4].PreemptDelay = 2 * sim.Millisecond
	res := runProg(t, testArch(), Baseline(), prog, true)
	if res.Episodes[4].BIT < 2*sim.Millisecond {
		t.Fatalf("preempted interval BIT = %v, want >= 2ms", res.Episodes[4].BIT)
	}
	if res.Episodes[5].BIT >= 2*sim.Millisecond {
		t.Fatalf("next interval BIT = %v, should not carry the preemption", res.Episodes[5].BIT)
	}
}

func TestUnderpredictionFilterProtectsTable(t *testing.T) {
	mk := func(filter float64) (normal, poisoned Result) {
		prog := make(SliceProgram, 12)
		work := imbalancedWork(100_000, 200_000)
		for i := range prog {
			i := i
			prog[i] = PhaseSpec{
				PC:            0x100,
				Segment:       func(th int) cpu.Segment { return work(i, th) },
				PreemptThread: -1,
			}
		}
		prog[5].PreemptThread = 3
		prog[5].PreemptDelay = 20 * sim.Millisecond
		opts := Thrifty()
		opts.Predictor.UnderpredictFactor = filter
		res := runProg(t, testArch(), opts, prog, false)
		return res, res
	}
	resFiltered, _ := mk(4)
	resUnfiltered, _ := mk(0)
	if resFiltered.Stats.SkippedUpdates == 0 {
		t.Fatal("filter never skipped an update")
	}
	// Without the filter the 20ms interval poisons the next prediction:
	// the following instance overpredicts massively. With the filter, the
	// old short interval is reused. Both must complete correctly either
	// way (hybrid wake-up bounds the damage); the filter shows up as
	// skipped updates and fewer disables.
	if resUnfiltered.Stats.SkippedUpdates != 0 {
		t.Fatal("unfiltered run skipped updates")
	}
}

func TestBSTDirectWorksButWorse(t *testing.T) {
	// Direct BST prediction functions, but on a workload where per-thread
	// stall shifts around (rotating straggler), BIT-based prediction sleeps
	// more accurately. Rotate the straggler across threads.
	work := func(instance, thread int) cpu.Segment {
		insns := int64(100_000)
		if thread == instance%8 {
			insns += 400_000
		}
		return cpu.Segment{Instructions: insns}
	}
	prog := UniformProgram(0x100, 16, work)
	bitOpts := Thrifty()
	bstOpts := Thrifty()
	bstOpts.BSTDirect = true
	base := runProg(t, testArch(), Baseline(), prog, false)
	bit := runProg(t, testArch(), bitOpts, prog, false)
	bst := runProg(t, testArch(), bstOpts, prog, false)
	eBIT := bit.Breakdown.Normalize(base.Breakdown).TotalEnergy()
	eBST := bst.Breakdown.Normalize(base.Breakdown).TotalEnergy()
	if eBIT > 1.0 {
		t.Fatalf("BIT-based thrifty saved nothing (%.3f)", eBIT)
	}
	sleeps := 0
	for _, n := range bst.Stats.Sleeps {
		sleeps += n
	}
	if sleeps == 0 {
		t.Fatal("direct-BST never slept: its stall predictor was never trained")
	}
	t.Logf("BIT energy %.3f, direct-BST energy %.3f", eBIT, eBST)
}

func TestFlushOverheadAppearsInCompute(t *testing.T) {
	// Dirty working set: deep sleeps flush it, and re-reads after the
	// barrier become compulsory misses — Compute energy/time rises vs
	// Ideal (§5.2).
	work := func(instance, thread int) cpu.Segment {
		refs := make([]cpu.Ref, 64)
		for i := range refs {
			refs[i] = cpu.Ref{Addr: uint64(thread)<<24 | uint64(0x100000+i*64), Write: true}
		}
		insns := int64(100_000)
		if thread == 0 {
			insns += 500_000
		}
		return cpu.Segment{Instructions: insns, Refs: refs, RefScale: 4}
	}
	prog := UniformProgram(0x100, 10, work)
	thr := runProg(t, testArch(), Thrifty(), prog, false)
	ideal := runProg(t, testArch(), Ideal(), prog, false)
	if thr.Stats.FlushLines == 0 {
		t.Fatal("no lines were flushed")
	}
	if ideal.Stats.FlushLines != 0 {
		t.Fatal("Ideal flushed")
	}
	if thr.Breakdown.Time[sim.StateCompute] <= ideal.Breakdown.Time[sim.StateCompute] {
		t.Fatalf("flush overhead not visible in Compute: thrifty %v <= ideal %v",
			thr.Breakdown.Time[sim.StateCompute], ideal.Breakdown.Time[sim.StateCompute])
	}
}

func TestScalesToFullMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node run in -short mode")
	}
	arch := DefaultArch()
	prog := UniformProgram(0x100, 6, func(instance, thread int) cpu.Segment {
		insns := int64(100_000 + thread*2_000)
		return cpu.Segment{Instructions: insns}
	})
	base := runProg(t, arch, Baseline(), prog, false)
	thr := runProg(t, arch, Thrifty(), prog, false)
	n := thr.Breakdown.Normalize(base.Breakdown)
	if n.SpanRatio > 1.1 {
		t.Fatalf("64-node slowdown %.3f", n.SpanRatio)
	}
	if base.Stats.Episodes != 6 || thr.Stats.Episodes != 6 {
		t.Fatal("episode count wrong at 64 nodes")
	}
}

func TestWakeupModeString(t *testing.T) {
	if WakeupHybrid.String() != "hybrid" || WakeupExternal.String() != "external" || WakeupInternal.String() != "internal" {
		t.Error("WakeupMode.String mismatch")
	}
}

func TestEmptyProgram(t *testing.T) {
	res := runProg(t, testArch(), Thrifty(), SliceProgram{}, false)
	if res.Span != 0 || res.Stats.Episodes != 0 {
		t.Fatal("empty program produced activity")
	}
}
