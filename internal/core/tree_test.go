package core

import (
	"testing"

	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/sim"
)

// treeSizes lays out the fixed-arity combining tree of one barrier and
// returns its group sizes per level.
func treeSizes(nodes, arity int) [][]int {
	count := barrierBase
	sh := buildShape(TopologyTree, arity, nodes, nodes, count, count+flagOffset, dram.NewPlacement(nodes, 4096))
	out := make([][]int, len(sh.levels))
	for l, lv := range sh.levels {
		for _, g := range lv.groups {
			out[l] = append(out[l], g.size)
		}
	}
	return out
}

func TestTreeShape(t *testing.T) {
	s := treeSizes(64, 8)
	if len(s) != 2 {
		t.Fatalf("levels = %d, want 2 (64 = 8*8)", len(s))
	}
	if len(s[0]) != 8 || len(s[1]) != 1 {
		t.Fatalf("groups per level = %d,%d", len(s[0]), len(s[1]))
	}
	for _, c := range s[0] {
		if c != 8 {
			t.Fatalf("level-0 group size %d, want 8", c)
		}
	}
	if s[1][0] != 8 {
		t.Fatalf("root group size %d, want 8", s[1][0])
	}
}

func TestTreeShapeRagged(t *testing.T) {
	// 8 nodes, arity 3: level 0 groups of 3,3,2; level 1 root of 3.
	s := treeSizes(8, 3)
	if len(s) != 2 {
		t.Fatalf("levels = %d", len(s))
	}
	want0 := []int{3, 3, 2}
	for i, w := range want0 {
		if s[0][i] != w {
			t.Fatalf("level-0 sizes %v, want %v", s[0], want0)
		}
	}
	if s[1][0] != 3 {
		t.Fatalf("root size %d, want 3", s[1][0])
	}
}

func TestTreeArityValidation(t *testing.T) {
	o := Baseline()
	o.TreeArity = 1
	if o.Validate() == nil {
		t.Error("arity 1 accepted")
	}
	o.TreeArity = -2
	if o.Validate() == nil {
		t.Error("negative arity accepted")
	}
	o.TreeArity = 4
	if err := o.Validate(); err != nil {
		t.Errorf("arity 4 rejected: %v", err)
	}
}

func TestTreeBarrierSemantics(t *testing.T) {
	for _, arity := range []int{2, 4, 8} {
		opts := Baseline()
		opts.TreeArity = arity
		prog := UniformProgram(0x100, 5, imbalancedWork(200_000, 100_000))
		res := runProg(t, testArch(), opts, prog, true)
		if res.Stats.Episodes != 5 {
			t.Fatalf("arity %d: episodes = %d, want 5", arity, res.Stats.Episodes)
		}
		for i, ep := range res.Episodes {
			for th, d := range ep.Depart {
				if d < ep.ReleaseAt {
					t.Fatalf("arity %d ep %d thread %d departed before release", arity, i, th)
				}
			}
		}
	}
}

func TestTreeBarrierReducesSerialization(t *testing.T) {
	// A perfectly balanced program at 64 nodes: all arrivals simultaneous,
	// so the flat barrier's O(N) counter serialization dominates the
	// measured imbalance. The combining tree must cut it sharply.
	if testing.Short() {
		t.Skip("64-node run in -short mode")
	}
	arch := DefaultArch()
	work := func(instance, thread int) cpu.Segment {
		return cpu.Segment{Instructions: 1_000_000}
	}
	prog := UniformProgram(0x100, 6, work)
	flat := runProg(t, arch, Baseline(), prog, false)
	treeOpts := Baseline()
	treeOpts.TreeArity = 8
	tree := runProg(t, arch, treeOpts, prog, false)

	if tree.Span >= flat.Span {
		t.Fatalf("tree span %v not below flat span %v on balanced program", tree.Span, flat.Span)
	}
	flatSpin := flat.Breakdown.Time[sim.StateSpin]
	treeSpin := tree.Breakdown.Time[sim.StateSpin]
	if treeSpin >= flatSpin/2 {
		t.Fatalf("tree spin %v not well below flat spin %v", treeSpin, flatSpin)
	}
}

func TestTreeBarrierWithThrifty(t *testing.T) {
	// The thrifty machinery composes with the tree check-in.
	opts := Thrifty()
	opts.TreeArity = 4
	prog := UniformProgram(0x100, 10, imbalancedWork(100_000, 400_000))
	res := runProg(t, testArch(), opts, prog, false)
	total := 0
	for _, n := range res.Stats.Sleeps {
		total += n
	}
	if total == 0 {
		t.Fatal("tree+thrifty never slept")
	}
	if res.Stats.Episodes != 10 {
		t.Fatalf("episodes = %d", res.Stats.Episodes)
	}
}

func TestTreeDeterminism(t *testing.T) {
	opts := Thrifty()
	opts.TreeArity = 8
	prog := UniformProgram(0x100, 8, imbalancedWork(100_000, 250_000))
	a := runProg(t, testArch(), opts, prog, false)
	b := runProg(t, testArch(), opts, prog, false)
	if a.Span != b.Span {
		t.Fatal("tree runs not deterministic")
	}
}
