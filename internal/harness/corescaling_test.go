package harness

import (
	"math"
	"testing"

	"thriftybarrier/internal/core"
)

// TestCoreScalingShardInvariant pins the harness rows at 64 CPUs, which
// come from the sequential engine, against rows built from explicitly
// sharded runs at 1 and 8 shards: the machine's bit-identity contract
// makes every field, per-CPU digests included, independent of the engine.
// Each Baseline row must also be self-normalized — Time exactly 1, Energy
// within rounding of 1, since it sums per-state ratios — and carry the
// digest of an independent Baseline run.
func TestCoreScalingShardInvariant(t *testing.T) {
	const seed, nodes = 1, 64
	rows := CoreScalingExperiment(seed, nodes, 0)
	prog := CoreScalingProgram(seed, nodes, 24)
	fabrics := []struct {
		label string
		topo  core.Topology
		arity int
	}{
		{"flat", core.TopologyFlat, 0},
		{"tree r=8", core.TopologyTree, coreScalingTreeArity},
		{"noc tree", core.TopologyNoCTree, 0},
	}
	if len(rows) != 2*len(fabrics) {
		t.Fatalf("got %d rows, want %d (3 topologies x 2 variants)", len(rows), 2*len(fabrics))
	}
	for _, shards := range []int{1, 8} {
		for i, f := range fabrics {
			run := func(opts core.Options) core.ParallelResult {
				opts.Topology = f.topo
				opts.TreeArity = f.arity
				m, err := core.NewParallelMachine(coreScalingArch(seed, nodes), opts)
				if err != nil {
					t.Fatal(err)
				}
				return m.Run(prog, shards)
			}
			base, thrifty := run(core.Baseline()), run(core.Thrifty())
			want := [2]CoreScalingRow{
				coreScalingRow(nodes, f.label, "Baseline", base, base),
				coreScalingRow(nodes, f.label, "Thrifty", thrifty, base),
			}
			if got := [2]CoreScalingRow(rows[2*i : 2*i+2]); got != want {
				t.Errorf("%s: harness rows differ from %d-shard runs:\n got %+v\nwant %+v", f.label, shards, got, want)
			}
			if b := rows[2*i]; math.Abs(b.Energy-1) > 1e-15 || b.Time != 1 || b.PerCPUDigest != perCPUDigest(base) {
				t.Errorf("%s: baseline row %+v is not the self-normalized %d-shard Baseline run", f.label, b, shards)
			}
		}
	}
}

// The study must reproduce the paper's headline at scale: Thrifty saves
// energy on every topology while staying inside a small slowdown
// envelope.
func TestCoreScalingThriftyEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("256-CPU sweep")
	}
	rows := CoreScalingExperiment(1, 256, 8)
	for _, r := range rows {
		switch r.Variant {
		case "Baseline":
			if math.Abs(r.Energy-1) > 1e-9 || math.Abs(r.Time-1) > 1e-9 {
				t.Errorf("%s baseline not self-normalized: energy %.3f time %.3f", r.Topology, r.Energy, r.Time)
			}
		case "Thrifty":
			if r.Energy >= 1 {
				t.Errorf("%s: thrifty energy %.3f not below baseline", r.Topology, r.Energy)
			}
			if r.Time > 1.02 {
				t.Errorf("%s: thrifty slowdown %.4f exceeds the 2%% envelope", r.Topology, r.Time)
			}
			if r.Sleeps == 0 {
				t.Errorf("%s: thrifty never slept", r.Topology)
			}
		}
	}
}
