package workload

import (
	"reflect"
	"testing"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/cpu"
)

func TestAllSpecsValidate(t *testing.T) {
	apps := All()
	if len(apps) != 10 {
		t.Fatalf("applications = %d, want 10 (Table 2)", len(apps))
	}
	for _, s := range apps {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestTable2Order(t *testing.T) {
	apps := All()
	for i := 1; i < len(apps); i++ {
		if apps[i].TargetImbalance > apps[i-1].TargetImbalance {
			t.Fatalf("apps not in decreasing imbalance order at %s", apps[i].Name)
		}
	}
	want := []string{"Volrend", "Radix", "FMM", "Barnes", "Water-Nsq",
		"Water-Sp", "Ocean", "FFT", "Cholesky", "Radiosity"}
	for i, w := range want {
		if apps[i].Name != w {
			t.Fatalf("app %d = %s, want %s", i, apps[i].Name, w)
		}
	}
}

func TestTargetApps(t *testing.T) {
	targets := TargetApps()
	if len(targets) != 5 {
		t.Fatalf("target apps = %d, want 5 (imbalance >= 10%%)", len(targets))
	}
	for _, s := range targets {
		if s.TargetImbalance < 0.10 {
			t.Errorf("%s imbalance %v below 10%%", s.Name, s.TargetImbalance)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("Ocean"); !ok {
		t.Fatal("Ocean not found")
	}
	if _, ok := ByName("Raytrace"); ok {
		t.Fatal("Raytrace found (excluded by the paper: no barriers)")
	}
}

func TestBuildPhaseCount(t *testing.T) {
	for _, s := range All() {
		prog := s.Build(8, 1)
		if prog.Phases() != s.Phases() {
			t.Errorf("%s: built %d phases, want %d", s.Name, prog.Phases(), s.Phases())
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	s := FMM()
	a := s.Build(8, 42)
	b := s.Build(8, 42)
	for i := 0; i < a.Phases(); i++ {
		for th := 0; th < 8; th++ {
			sa := a.Phase(i).Segment(th)
			sb := b.Phase(i).Segment(th)
			if sa.Instructions != sb.Instructions {
				t.Fatalf("phase %d thread %d: %d vs %d insns", i, th, sa.Instructions, sb.Instructions)
			}
			if len(sa.Refs) != len(sb.Refs) {
				t.Fatalf("phase %d thread %d ref counts differ", i, th)
			}
		}
	}
	// Segment generation is idempotent (core may call it once, but the
	// contract is pure).
	p := a.Phase(3)
	if p.Segment(2).Instructions != p.Segment(2).Instructions {
		t.Fatal("segment not idempotent")
	}
}

func TestBuildSeedSensitivity(t *testing.T) {
	s := Barnes()
	a := s.Build(8, 1)
	b := s.Build(8, 2)
	same := true
	for i := 0; i < a.Phases() && same; i++ {
		for th := 0; th < 8; th++ {
			if a.Phase(i).Segment(th).Instructions != b.Phase(i).Segment(th).Instructions {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestLoopBarriersSharePCs(t *testing.T) {
	s := FMM()
	prog := s.Build(8, 1)
	perIter := len(s.Loop)
	for it := 1; it < s.Iterations; it++ {
		for j := 0; j < perIter; j++ {
			if prog.Phase(it*perIter+j).PC != prog.Phase(j).PC {
				t.Fatalf("iteration %d barrier %d has a different PC", it, j)
			}
		}
	}
}

func TestOneShotBarriersHaveDistinctPCs(t *testing.T) {
	s := FFT()
	prog := s.Build(8, 1)
	seen := map[uint64]bool{}
	for i := 0; i < prog.Phases(); i++ {
		pc := prog.Phase(i).PC
		if seen[pc] {
			t.Fatalf("FFT phase %d reuses PC %#x", i, pc)
		}
		seen[pc] = true
	}
}

func TestStragglerRotates(t *testing.T) {
	s := FMM()
	prog := s.Build(8, 1)
	perIter := len(s.Loop)
	// Find the straggler (max-instruction thread) of barrier 0 in each
	// iteration; it must not always be the same thread.
	first := -1
	varies := false
	for it := 0; it < s.Iterations; it++ {
		spec := prog.Phase(it * perIter)
		maxI, maxV := 0, int64(0)
		for th := 0; th < 8; th++ {
			if v := spec.Segment(th).Instructions; v > maxV {
				maxV, maxI = v, th
			}
		}
		if first == -1 {
			first = maxI
		} else if maxI != first {
			varies = true
		}
	}
	if !varies {
		t.Fatal("straggler never rotated")
	}
}

func TestSwingChangesPhaseLength(t *testing.T) {
	s := Ocean()
	prog := s.Build(8, 1)
	perIter := len(s.Loop)
	// relaxA swings [1, 0.14, ...]: instance 0 long, instance 1 short.
	long := prog.Phase(0 * perIter).Segment(1).Instructions
	short := prog.Phase(1 * perIter).Segment(1).Instructions
	if short >= long/3 {
		t.Fatalf("swing ineffective: long %d, short %d", long, short)
	}
}

func TestDirtyLinesProduceWriteRefs(t *testing.T) {
	s := WaterNsq()
	prog := s.Build(8, 1)
	seg := prog.Phase(0).Segment(3)
	writes := 0
	for _, r := range seg.Refs {
		if r.Write {
			writes++
		}
	}
	if writes != s.Loop[0].DirtyLines {
		t.Fatalf("writes = %d, want %d", writes, s.Loop[0].DirtyLines)
	}
}

func TestDirtyRegionsPerThreadAreDisjoint(t *testing.T) {
	s := WaterNsq()
	prog := s.Build(8, 1)
	a := prog.Phase(0).Segment(0)
	b := prog.Phase(0).Segment(1)
	addrs := map[uint64]bool{}
	for _, r := range a.Refs {
		if r.Write {
			addrs[r.Addr] = true
		}
	}
	for _, r := range b.Refs {
		if r.Write && addrs[r.Addr] {
			t.Fatalf("threads share dirty line %#x", r.Addr)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "", Iterations: 1, Loop: []BarrierSpec{{Label: "x", BaseInstr: 1}}},
		{Name: "x", Iterations: 0, Loop: []BarrierSpec{{Label: "x", BaseInstr: 1}}},
		{Name: "x", Iterations: 1, Loop: nil},
		{Name: "x", OneShot: true},
		{Name: "x", Iterations: 1, Loop: []BarrierSpec{{Label: "x", BaseInstr: 0}}},
		{Name: "x", Iterations: 1, Loop: []BarrierSpec{{Label: "x", BaseInstr: 1, Swing: []float64{0}}}},
		{Name: "x", Iterations: 1, Loop: []BarrierSpec{{Label: "x", BaseInstr: 1}}, TargetImbalance: 1.5},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// Smoke: every application runs end to end on a small machine under
// Baseline and Thrifty without violating barrier semantics.
func TestAllAppsRunEndToEnd(t *testing.T) {
	arch := core.DefaultArch().WithNodes(8)
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			prog := s.Build(8, 1)
			for _, opts := range []core.Options{core.Baseline(), core.Thrifty()} {
				res := core.Simulate(arch, opts, prog, false)
				if res.Stats.Episodes != s.Phases() {
					t.Fatalf("%s/%s: %d episodes, want %d", s.Name, opts.Name, res.Stats.Episodes, s.Phases())
				}
				if res.Span <= 0 {
					t.Fatalf("%s/%s: zero span", s.Name, opts.Name)
				}
			}
		})
	}
}

func TestProfile(t *testing.T) {
	s := FMM()
	prog := s.Build(8, 1)
	prof := Profile(prog, 8)
	if len(prof) != 3 {
		t.Fatalf("profiles = %d, want 3 static barriers", len(prof))
	}
	for _, p := range prof {
		if p.Instances != s.Iterations {
			t.Errorf("pc %#x instances = %d, want %d", p.PC, p.Instances, s.Iterations)
		}
		if p.MeanInstr <= 0 {
			t.Errorf("pc %#x mean instructions %v", p.PC, p.MeanInstr)
		}
	}
	// Barrier 2 is the long one (FMM's Figure 3 pattern).
	if prof[1].MeanInstr <= prof[0].MeanInstr {
		t.Errorf("barrier 2 (%v) not longer than barrier 1 (%v)", prof[1].MeanInstr, prof[0].MeanInstr)
	}
}

// Every segment of every application streams exactly the references the
// per-call generator it replaced built: thread t's DirtyLines writes to
// its own region, then SharedReads reads of shared line
// (instance·131 + 7i + t) mod 4096, in that order.
func TestSegmentRefsMatchGenerator(t *testing.T) {
	for _, s := range All() {
		for _, nodes := range []int{8, 64} {
			prog := s.Build(nodes, 1)
			k := 0
			check := func(b BarrierSpec, instance int) {
				for th := 0; th < nodes; th++ {
					var want []cpu.Ref
					for i := 0; i < b.DirtyLines; i++ {
						want = append(want, cpu.Ref{Addr: uint64(1)<<45 | uint64(th)<<24 | uint64(i*64), Write: true})
					}
					for i := 0; i < b.SharedReads; i++ {
						want = append(want, cpu.Ref{Addr: uint64(1)<<46 | uint64((instance*131+i*7+th)%4096)<<6})
					}
					seg := prog.Phase(k).Segment(th)
					got := append(append([]cpu.Ref(nil), seg.Refs...), seg.More...)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s at %d nodes, phase %d thread %d: refs %v, want %v", s.Name, nodes, k, th, got, want)
					}
				}
				k++
			}
			for _, b := range s.Prologue {
				check(b, 0)
			}
			if !s.OneShot {
				for it := 0; it < s.Iterations; it++ {
					for _, b := range s.Loop {
						check(b, it)
					}
				}
			}
		}
	}
}
