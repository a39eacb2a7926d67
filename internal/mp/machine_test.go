package mp

import (
	"math"
	"testing"

	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/sim"
)

func testConfig(nodes int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.NoC.Nodes = nodes
	return cfg
}

// stragglerProgram builds phases where one rotating rank lags.
func stragglerProgram(pc uint64, phases int, base, extra sim.Cycles) Program {
	prog := make(Program, phases)
	for i := range prog {
		i := i
		prog[i] = Phase{
			PC: pc,
			Work: func(rank int) sim.Cycles {
				if rank == i%8 {
					return base + extra
				}
				return base
			},
		}
	}
	return prog
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Nodes = 48
	if bad.Validate() == nil {
		t.Error("48 nodes accepted")
	}
	bad = DefaultConfig()
	bad.Fanout = 1
	if bad.Validate() == nil {
		t.Error("fanout 1 accepted")
	}
	bad = DefaultConfig()
	bad.NoC = noc.DefaultConfig()
	bad.Nodes = 32
	if bad.Validate() == nil {
		t.Error("NoC size mismatch accepted")
	}
}

// TestNewMachineErrorNotPanic pins the converted constructor contract: an
// invalid Config comes back as an error for the CLI's exit-2 path, and only
// the Must wrapper panics.
func TestNewMachineErrorNotPanic(t *testing.T) {
	bad := testConfig(16)
	bad.Fanout = 1
	m, err := NewMachine(bad, Baseline())
	if err == nil || m != nil {
		t.Fatalf("NewMachine(bad) = (%v, %v), want (nil, error)", m, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewMachine(bad) did not panic")
		}
	}()
	MustNewMachine(bad, Baseline())
}

func TestTreeShape(t *testing.T) {
	m := MustNewMachine(testConfig(16), Baseline())
	if m.parent[0] != -1 {
		t.Fatal("root has a parent")
	}
	// Every non-root has a valid parent and appears in its child list.
	for r := 1; r < 16; r++ {
		p := m.parent[r]
		if p < 0 || p >= 16 {
			t.Fatalf("rank %d parent %d out of range", r, p)
		}
		found := false
		for _, c := range m.children[p] {
			if c == r {
				found = true
			}
		}
		if !found {
			t.Fatalf("rank %d missing from parent %d's children", r, p)
		}
		if len(m.children[p]) > m.cfg.Fanout {
			t.Fatalf("parent %d has %d children (> fanout)", p, len(m.children[p]))
		}
	}
	if m.depthLat[0] != 0 {
		t.Fatal("root broadcast latency not zero")
	}
	for r := 1; r < 16; r++ {
		if m.depthLat[r] <= 0 {
			t.Fatalf("rank %d broadcast latency %v", r, m.depthLat[r])
		}
	}
}

func TestBaselineRunsAndSpins(t *testing.T) {
	res := MustNewMachine(testConfig(8), Baseline()).RunParallel(stragglerProgram(0x1, 6, 100*sim.Microsecond, 300*sim.Microsecond), 1)
	if res.Stats.Episodes != 6 {
		t.Fatalf("episodes = %d, want 6", res.Stats.Episodes)
	}
	if res.Breakdown.Time[sim.StateSpin] <= 0 {
		t.Fatal("baseline never spun")
	}
	if res.Breakdown.Time[sim.StateSleep] != 0 {
		t.Fatal("baseline slept")
	}
	// Aggregate spin ~ 7 ranks x 6 phases x 300us.
	want := 7 * 6 * 300 * sim.Microsecond
	got := res.Breakdown.Time[sim.StateSpin]
	if got < want*8/10 || got > want*12/10 {
		t.Fatalf("aggregate spin = %v, want ~%v", got, want)
	}
}

func TestThriftySavesEnergy(t *testing.T) {
	prog := stragglerProgram(0x1, 10, 200*sim.Microsecond, 600*sim.Microsecond)
	base := MustNewMachine(testConfig(8), Baseline()).RunParallel(prog, 1)
	thr := MustNewMachine(testConfig(8), Thrifty()).RunParallel(prog, 1)
	n := thr.Breakdown.Normalize(base.Breakdown)
	if n.TotalEnergy() >= 0.9 {
		t.Fatalf("MP-Thrifty energy = %.3f, want clear savings", n.TotalEnergy())
	}
	if n.SpanRatio > 1.03 {
		t.Fatalf("MP-Thrifty slowdown = %.4f", n.SpanRatio)
	}
	total := 0
	for _, c := range thr.Stats.Sleeps {
		total += c
	}
	if total == 0 {
		t.Fatal("MP-Thrifty never slept")
	}
}

func TestOracleIsBoundAndExact(t *testing.T) {
	prog := stragglerProgram(0x1, 10, 200*sim.Microsecond, 600*sim.Microsecond)
	base := MustNewMachine(testConfig(8), Baseline()).RunParallel(prog, 1)
	thr := MustNewMachine(testConfig(8), Thrifty()).RunParallel(prog, 1)
	ora := MustNewMachine(testConfig(8), Oracle()).RunParallel(prog, 1)
	nT := thr.Breakdown.Normalize(base.Breakdown)
	nO := ora.Breakdown.Normalize(base.Breakdown)
	if nO.TotalEnergy() > nT.TotalEnergy()+1e-9 {
		t.Fatalf("oracle energy %.4f above thrifty %.4f", nO.TotalEnergy(), nT.TotalEnergy())
	}
	if math.Abs(nO.SpanRatio-1) > 0.002 {
		t.Fatalf("oracle span ratio = %.4f, want ~1", nO.SpanRatio)
	}
}

func TestWarmupSpinsFirstInstance(t *testing.T) {
	prog := stragglerProgram(0x1, 5, 100*sim.Microsecond, 400*sim.Microsecond)
	res := MustNewMachine(testConfig(8), Thrifty()).RunParallel(prog, 1)
	if res.Stats.Spins < 7 {
		t.Fatalf("spins = %d, want >= 7 (warm-up)", res.Stats.Spins)
	}
}

func TestBRTSReconstruction(t *testing.T) {
	prog := stragglerProgram(0x1, 8, 100*sim.Microsecond, 200*sim.Microsecond)
	p := MustNewMachine(testConfig(8), Thrifty()).run(prog, 1)
	// Every rank's accumulated BRTS equals the root's (the broadcast
	// carries the exact BIT).
	for r := 1; r < 8; r++ {
		if p.brts[r] != p.brts[0] {
			t.Fatalf("rank %d BRTS %v != root %v", r, p.brts[r], p.brts[0])
		}
	}
}

func TestSwingTriggersCutoff(t *testing.T) {
	// Alternating long/short intervals on the cluster: last-value
	// overpredicts on the short ones; the cut-off must disable.
	prog := make(Program, 16)
	for i := range prog {
		i := i
		base := 40 * sim.Microsecond
		if i%2 == 0 {
			base = 500 * sim.Microsecond
		}
		prog[i] = Phase{PC: 0x2, Work: func(rank int) sim.Cycles {
			if rank == 0 {
				return base + base/4
			}
			return base
		}}
	}
	res := MustNewMachine(testConfig(8), Thrifty()).RunParallel(prog, 1)
	if res.Stats.Disables == 0 {
		t.Fatalf("cut-off never fired: %+v", res.Stats)
	}
}

func TestDeterminism(t *testing.T) {
	prog := stragglerProgram(0x1, 8, 150*sim.Microsecond, 450*sim.Microsecond)
	a := MustNewMachine(testConfig(16), Thrifty()).RunParallel(prog, 1)
	b := MustNewMachine(testConfig(16), Thrifty()).RunParallel(prog, 1)
	if a.Span != b.Span || math.Abs(a.Breakdown.TotalEnergy()-b.Breakdown.TotalEnergy()) > 1e-12 {
		t.Fatal("MP runs not deterministic")
	}
}

func TestEmptyProgram(t *testing.T) {
	res := MustNewMachine(testConfig(8), Thrifty()).RunParallel(nil, 1)
	if res.Span != 0 {
		t.Fatal("empty program advanced time")
	}
}

func TestScalesTo64(t *testing.T) {
	prog := stragglerProgram(0x1, 6, 200*sim.Microsecond, 500*sim.Microsecond)
	base := MustNewMachine(testConfig(64), Baseline()).RunParallel(prog, 1)
	thr := MustNewMachine(testConfig(64), Thrifty()).RunParallel(prog, 1)
	n := thr.Breakdown.Normalize(base.Breakdown)
	if n.TotalEnergy() >= 1 {
		t.Fatalf("64-node MP-Thrifty energy %.3f", n.TotalEnergy())
	}
	if n.SpanRatio > 1.05 {
		t.Fatalf("64-node MP-Thrifty slowdown %.4f", n.SpanRatio)
	}
}

func dissemConfig(nodes int) Config {
	cfg := testConfig(nodes)
	cfg.Algorithm = DisseminationBarrier
	return cfg
}

func TestAlgorithmString(t *testing.T) {
	if TreeBarrier.String() != "tree" || DisseminationBarrier.String() != "dissemination" {
		t.Error("Algorithm.String mismatch")
	}
}

func TestDisseminationRunsAndSynchronizes(t *testing.T) {
	res := MustNewMachine(dissemConfig(16), Baseline()).RunParallel(stragglerProgram(0x1, 6, 100*sim.Microsecond, 300*sim.Microsecond), 1)
	if res.Stats.Episodes != 6 {
		t.Fatalf("episodes = %d, want 6", res.Stats.Episodes)
	}
	if res.Breakdown.Time[sim.StateSpin] <= 0 {
		t.Fatal("dissemination baseline never waited")
	}
}

func TestDisseminationCompletionSkewBounded(t *testing.T) {
	// Every rank's completion lands within a couple of message latencies
	// of every other's — the collective really did synchronize.
	mD := MustNewMachine(dissemConfig(64), Baseline())
	prog := stragglerProgram(0x1, 2, 100*sim.Microsecond, 200*sim.Microsecond)
	p := mD.run(prog, 1)
	lo, hi := sim.MaxCycles, sim.Cycles(0)
	for _, f := range p.finish {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if bound := 4 * mD.net.MaxLatency(mD.cfg.MsgBytes); hi-lo > bound {
		t.Fatalf("dissemination finish skew %v exceeds %v", hi-lo, bound)
	}
}

func TestDisseminationThriftySaves(t *testing.T) {
	prog := stragglerProgram(0x1, 10, 200*sim.Microsecond, 600*sim.Microsecond)
	base := MustNewMachine(dissemConfig(16), Baseline()).RunParallel(prog, 1)
	thr := MustNewMachine(dissemConfig(16), Thrifty()).RunParallel(prog, 1)
	n := thr.Breakdown.Normalize(base.Breakdown)
	if n.TotalEnergy() >= 0.9 {
		t.Fatalf("dissemination thrifty energy = %.3f", n.TotalEnergy())
	}
	if n.SpanRatio > 1.03 {
		t.Fatalf("dissemination thrifty slowdown = %.4f", n.SpanRatio)
	}
}

func TestDisseminationVsTreeLatency(t *testing.T) {
	// For a balanced program the barrier's completion latency is the
	// collective's network depth; both algorithms must be within a small
	// factor, and dissemination must not be slower than the tree's
	// up-plus-down path at 64 nodes.
	prog := stragglerProgram(0x1, 5, 100*sim.Microsecond, 0)
	tree := MustNewMachine(testConfig(64), Baseline()).RunParallel(prog, 1)
	diss := MustNewMachine(dissemConfig(64), Baseline()).RunParallel(prog, 1)
	if diss.Span > tree.Span {
		t.Fatalf("dissemination span %v slower than tree %v", diss.Span, tree.Span)
	}
}

func TestDisseminationDeterminism(t *testing.T) {
	prog := stragglerProgram(0x1, 8, 150*sim.Microsecond, 450*sim.Microsecond)
	a := MustNewMachine(dissemConfig(16), Thrifty()).RunParallel(prog, 1)
	b := MustNewMachine(dissemConfig(16), Thrifty()).RunParallel(prog, 1)
	if a.Span != b.Span || math.Abs(a.Breakdown.TotalEnergy()-b.Breakdown.TotalEnergy()) > 1e-12 {
		t.Fatal("dissemination runs not deterministic")
	}
}

func TestDisseminationBRTSReconstruction(t *testing.T) {
	prog := stragglerProgram(0x1, 8, 100*sim.Microsecond, 200*sim.Microsecond)
	p := MustNewMachine(dissemConfig(8), Thrifty()).run(prog, 1)
	for r := 1; r < 8; r++ {
		if p.brts[r] != p.brts[0] {
			t.Fatalf("rank %d BRTS %v != rank 0 %v", r, p.brts[r], p.brts[0])
		}
	}
}

// Accounting conservation: per-rank state time covers nearly the whole
// span under every configuration.
func TestMPAccountingConservation(t *testing.T) {
	prog := stragglerProgram(0x1, 8, 200*sim.Microsecond, 500*sim.Microsecond)
	for _, opts := range []Options{Baseline(), Thrifty(), Oracle()} {
		for _, alg := range []Algorithm{TreeBarrier, DisseminationBarrier} {
			cfg := testConfig(16)
			cfg.Algorithm = alg
			res := MustNewMachine(cfg, opts).RunParallel(prog, 1)
			total := res.Breakdown.TotalTime()
			// Every rank's timeline ends at or before its own departure
			// (TestTimelineEndsAtDeparture), so the aggregate never
			// exceeds nodes × span.
			upper := sim.Cycles(16) * res.Span
			if total > upper {
				t.Fatalf("%s/%s: accounted %v exceeds %v", opts.Name, alg, total, upper)
			}
			// The hole check keeps its reference of one NIC-wake window
			// per wait above nodes × span.
			ref := upper + sim.Cycles(16*len(prog))*cfg.NICWake
			if float64(total) < 0.95*float64(ref) {
				t.Fatalf("%s/%s: accounted %v far below %v (hole)", opts.Name, alg, total, ref)
			}
		}
	}
}

// extensionProgram rebuilds the seeded program of harness.MPExperiment (the
// results/extension_mp.txt study), which this package cannot import.
func extensionProgram(seed uint64, nodes int) Program {
	rng := sim.NewRNG(seed)
	prog := make(Program, 48)
	for i := range prog {
		baseAlt := []sim.Cycles{900 * sim.Microsecond, 1800 * sim.Microsecond, 950 * sim.Microsecond}
		base := baseAlt[i%3]
		straggler := rng.Intn(nodes)
		pr := rng.Split(uint64(i))
		prog[i] = Phase{
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
	return prog
}

// TestTimelineEndsAtDeparture pins the hybrid wake-up's accounting
// invariant: every rank's timeline accounts exactly up to its last
// departure, so no wake-up interval overlaps the rank's next phase — a rank
// never leaves the barrier before its CPU is back up. The only time no state
// accounts is the NIC-to-CPU wake signal that ends a sleep (or the oracle's
// just-in-time wake), one NICWake per such episode; with NICWake zeroed the
// timeline must end at the departure to the cycle.
func TestTimelineEndsAtDeparture(t *testing.T) {
	progs := []struct {
		name  string
		nodes int
		prog  Program
	}{
		{"straggler", 16, stragglerProgram(0x1, 10, 200*sim.Microsecond, 600*sim.Microsecond)},
		{"extension-seed1", 64, extensionProgram(1, 64)},
	}
	for _, pg := range progs {
		for _, opts := range []Options{Baseline(), Thrifty(), Oracle()} {
			for _, alg := range []Algorithm{TreeBarrier, DisseminationBarrier} {
				for _, nicWake := range []sim.Cycles{DefaultConfig().NICWake, 0} {
					cfg := testConfig(pg.nodes)
					cfg.Algorithm = alg
					cfg.NICWake = nicWake
					p := MustNewMachine(cfg, opts).run(pg.prog, 1)
					for r := 0; r < pg.nodes; r++ {
						gap := p.finish[r] - p.tl[r].TotalTime()
						ok := gap >= 0 && gap <= sim.Cycles(len(pg.prog))*nicWake
						if nicWake > 0 {
							ok = ok && gap%nicWake == 0
						}
						if !ok {
							t.Fatalf("%s/%s/%s NICWake=%d: rank %d departs at cycle %d, its timeline accounts %d",
								pg.name, opts.Name, alg, nicWake, r, p.finish[r], p.tl[r].TotalTime())
						}
					}
				}
			}
		}
	}
}
