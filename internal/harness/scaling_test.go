package harness

import (
	"reflect"
	"strings"
	"testing"

	"thriftybarrier/internal/mp"
)

func TestScalingExperiment(t *testing.T) {
	rows := ScalingExperiment(7, 64, 4)
	if len(rows) != 10 { // 5 collectives × {Baseline, Thrifty}
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r.Nodes != 64 {
			t.Fatalf("row %+v has wrong node count", r)
		}
		if r.Stats.Episodes != 24 {
			t.Fatalf("%s/%s: %d episodes, want 24", r.Collective, r.Variant, r.Stats.Episodes)
		}
		if r.Round <= 0 {
			t.Fatalf("%s/%s: non-positive round latency", r.Collective, r.Variant)
		}
		if len(r.PerNodeDigest) != 16 {
			t.Fatalf("digest %q not 16 hex chars", r.PerNodeDigest)
		}
		if r.Variant == "MP-Baseline" && (r.Energy != 1 || r.Time != 1) {
			t.Fatalf("baseline row not self-normalized: %+v", r)
		}
	}
}

// TestScalingShardInvariance pins the harness rows at 64 nodes, which
// come from one-shard runs, against rows built from explicitly sharded
// runs at 2 and 8 shards: RunParallel's determinism contract makes every
// field, per-node digests included, independent of the shard count. Each
// Baseline row must also be self-normalized, Energy and Time exactly 1,
// and carry the digest of an independent Baseline run.
func TestScalingShardInvariance(t *testing.T) {
	const seed, nodes = 7, 64
	rows := ScalingExperiment(seed, nodes, 0)
	cfg := mp.DefaultConfig()
	cfg.Nodes = nodes
	cfg.NoC.Nodes = nodes
	prog := ScalingProgram(seed, nodes, 24)
	cols := []struct {
		label  string
		alg    mp.Algorithm
		fanout int
	}{
		{"tree r=2", mp.TreeBarrier, 2},
		{"tree r=4", mp.TreeBarrier, 4},
		{"tree r=8", mp.TreeBarrier, 8},
		{"tree r=16", mp.TreeBarrier, 16},
		{"dissemination", mp.DisseminationBarrier, cfg.Fanout},
	}
	if len(rows) != 2*len(cols) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(cols))
	}
	for _, shards := range []int{2, 8} {
		for i, c := range cols {
			cc := cfg
			cc.Algorithm = c.alg
			cc.Fanout = c.fanout
			base := mp.MustNewMachine(cc, mp.Baseline()).RunParallel(prog, shards)
			thrifty := mp.MustNewMachine(cc, mp.Thrifty()).RunParallel(prog, shards)
			want := []ScalingRow{
				scalingRow(nodes, c.label, "MP-Baseline", base, base),
				scalingRow(nodes, c.label, "MP-Thrifty", thrifty, base),
			}
			got := rows[2*i : 2*i+2]
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: harness rows differ from %d-shard runs:\n got %+v\nwant %+v", c.label, shards, got, want)
			}
			if b := got[0]; b.Energy != 1 || b.Time != 1 || b.PerNodeDigest != perNodeDigest(base) {
				t.Errorf("%s: baseline row %+v is not the self-normalized %d-shard Baseline run", c.label, b, shards)
			}
		}
	}
}

func TestRenderScaling(t *testing.T) {
	rows := ScalingExperiment(7, 64, 4)
	out := RenderScaling(64, rows)
	for _, want := range []string{"64 nodes", "tree r=4", "dissemination", "MP-Thrifty"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
