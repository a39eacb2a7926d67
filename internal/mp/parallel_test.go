package mp

import (
	"fmt"
	"reflect"
	"testing"

	"thriftybarrier/internal/energy"
	"thriftybarrier/internal/sim"
)

// jitterProgram builds phases whose per-rank work varies deterministically
// with rank and phase — enough spread that arrivals land in different
// engine windows, plus occasional near-ties to exercise the merge order.
func jitterProgram(pc uint64, phases int, base sim.Cycles) Program {
	prog := make(Program, phases)
	for i := range prog {
		i := i
		prog[i] = Phase{
			PC: pc + uint64(i%3),
			Work: func(rank int) sim.Cycles {
				w := base + sim.Cycles((rank*7919+i*104729)%997)
				if rank == (i*13)%23 {
					w += 4 * base // rotating straggler; big enough stall for sleep to fit
				}
				return w
			},
		}
	}
	return prog
}

// The three TestRunParallelMatchesRun* tests pin single-shard runs to the
// Results the former sequential Run produced for the same programs —
// breakdown, span and stats, bit for bit. Baseline and the oracle arm no
// timer, so the message-accurate wake-up classification cannot move them.

func checkRecorded(t *testing.T, name string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: RunParallel(prog, 1) = %#v, recorded %#v", name, got, want)
	}
}

func TestRunParallelMatchesRunBaseline(t *testing.T) {
	recorded := map[int]Result{
		8: {
			Breakdown: energy.Breakdown{
				Energy: [sim.NumStates]float64{0.43820349664, 0.44985892016, 0, 0},
				Time:   [sim.NumStates]sim.Cycles{5843960, 7049920, 0, 0},
				Span:   1611810,
			},
			Span:  1611810,
			Stats: Stats{Episodes: 12, Spins: 96, Sleeps: map[string]int{}},
		},
		64: {
			Breakdown: energy.Breakdown{
				Energy: [sim.NumStates]float64{3.0883777804880004, 9.661680467029498, 0, 0},
				Time:   [sim.NumStates]sim.Cycles{41187157, 151412079, 0, 0},
				Span:   3009455,
			},
			Span:  3009455,
			Stats: Stats{Episodes: 12, Spins: 768, Sleeps: map[string]int{}},
		},
	}
	for _, nodes := range []int{8, 64} {
		prog := jitterProgram(0x40, 12, 50_000)
		got := MustNewMachine(testConfig(nodes), Baseline()).RunParallel(prog, 1)
		checkRecorded(t, fmt.Sprintf("nodes=%d", nodes), got.Result, recorded[nodes])
	}
}

func TestRunParallelMatchesRunOracle(t *testing.T) {
	prog := jitterProgram(0x80, 12, 50_000)
	got := MustNewMachine(testConfig(16), Oracle()).RunParallel(prog, 1)
	checkRecorded(t, "oracle", got.Result, Result{
		Breakdown: energy.Breakdown{
			Energy: [sim.NumStates]float64{0.8622394413360001, 0.0023398672245, 0.3632390999999999, 0.03327530025600003},
			Time:   [sim.NumStates]sim.Cycles{11498979, 36669, 9450000, 17587368},
			Span:   2411349,
		},
		Span:  2411349,
		Stats: Stats{Episodes: 12, Spins: 57, Sleeps: map[string]int{"Sleep3": 135}},
	})
}

func TestRunParallelMatchesRunDissemination(t *testing.T) {
	prog := jitterProgram(0xC0, 10, 40_000)
	got := MustNewMachine(dissemConfig(16), Baseline()).RunParallel(prog, 1)
	checkRecorded(t, "dissemination", got.Result, Result{
		Breakdown: energy.Breakdown{
			Energy: [sim.NumStates]float64{0.57009735328, 1.0759445743799998, 0, 0},
			Time:   [sim.NumStates]sim.Cycles{7602920, 16861560, 0, 0},
			Span:   1529146,
		},
		Span:  1529146,
		Stats: Stats{Episodes: 10, Spins: 160, Sleeps: map[string]int{}},
	})
}

// TestRunParallelDeterminismAcrossShards pins the tentpole contract: the
// complete ParallelResult — per-node energy and spin time included — is
// bit-identical at every shard count, for every variant and both
// collectives.
func TestRunParallelDeterminismAcrossShards(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		opts Options
	}{
		{"tree-baseline", testConfig(32), Baseline()},
		{"tree-thrifty", testConfig(32), Thrifty()},
		{"tree-oracle", testConfig(32), Oracle()},
		{"dissem-baseline", dissemConfig(32), Baseline()},
		{"dissem-thrifty", dissemConfig(32), Thrifty()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := jitterProgram(0x100, 16, 60_000)
			want := MustNewMachine(tc.cfg, tc.opts).RunParallel(prog, 1)
			for _, shards := range []int{2, 4, 8} {
				got := MustNewMachine(tc.cfg, tc.opts).RunParallel(prog, shards)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("shards=%d diverged from shards=1:\n got %+v\nwant %+v", shards, got, want)
				}
			}
		})
	}
}

// TestRunParallelThriftyMechanisms checks the thrifty path actually
// exercises its machinery under the parallel engine: episodes complete,
// sleeps happen, and the round accounting is sane.
func TestRunParallelThriftyMechanisms(t *testing.T) {
	prog := jitterProgram(0x140, 16, 80_000)
	res := MustNewMachine(testConfig(32), Thrifty()).RunParallel(prog, 4)
	if res.Stats.Episodes != 16 {
		t.Fatalf("episodes = %d, want 16", res.Stats.Episodes)
	}
	if res.Rounds != 16 {
		t.Fatalf("rounds = %d, want 16", res.Rounds)
	}
	total := 0
	for _, c := range res.Stats.Sleeps {
		total += c
	}
	if total == 0 {
		t.Fatal("thrifty run never slept")
	}
	if res.MeanRoundLatency() <= 0 {
		t.Fatalf("mean round latency = %d, want > 0", res.MeanRoundLatency())
	}
	if len(res.PerNodeEnergy) != 32 || len(res.PerNodeSpin) != 32 {
		t.Fatalf("per-node slices sized %d/%d, want 32", len(res.PerNodeEnergy), len(res.PerNodeSpin))
	}
	for r, e := range res.PerNodeEnergy {
		if e <= 0 {
			t.Fatalf("rank %d energy = %v, want > 0", r, e)
		}
	}
}

// TestRunParallel1024Nodes is the scaling smoke the issue demands: a
// 1024-node barrier round completes on the parallel engine, under both
// collectives, with the thrifty policy exercising disable bits far past
// the former 64-thread predictor limit.
func TestRunParallel1024Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node smoke skipped in -short")
	}
	for _, build := range []struct {
		name string
		cfg  Config
	}{
		{"tree", testConfig(1024)},
		{"dissemination", dissemConfig(1024)},
	} {
		t.Run(build.name, func(t *testing.T) {
			prog := jitterProgram(0x200, 4, 100_000)
			res := MustNewMachine(build.cfg, Thrifty()).RunParallel(prog, 8)
			if res.Stats.Episodes != 4 {
				t.Fatalf("episodes = %d, want 4", res.Stats.Episodes)
			}
			if res.Span <= 0 {
				t.Fatalf("span = %d, want > 0", res.Span)
			}
			if len(res.PerNodeEnergy) != 1024 {
				t.Fatalf("per-node energy has %d entries, want 1024", len(res.PerNodeEnergy))
			}
		})
	}
}

// TestRunParallelShardClamp checks out-of-range shard counts are clamped
// rather than rejected: -j larger than the node count must still run.
func TestRunParallelShardClamp(t *testing.T) {
	prog := jitterProgram(0x240, 4, 40_000)
	want := MustNewMachine(testConfig(8), Baseline()).RunParallel(prog, 1)
	for _, shards := range []int{0, -3, 64} {
		got := MustNewMachine(testConfig(8), Baseline()).RunParallel(prog, shards)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d diverged from shards=1", shards)
		}
	}
}

// TestRunParallelEmptyProgram checks an empty program runs no episode at
// any shard count.
func TestRunParallelEmptyProgram(t *testing.T) {
	res := MustNewMachine(testConfig(8), Baseline()).RunParallel(nil, 4)
	if res.Span != 0 || res.Rounds != 0 {
		t.Fatalf("empty program produced %+v", res)
	}
}
