package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"thriftybarrier/internal/mp"
	"thriftybarrier/internal/sim"
	"thriftybarrier/internal/stats"
)

// ScalingRow is one measurement of the many-core scaling study: a barrier
// collective at one machine size under one waiting policy, run on one
// shard of the parallel engine. Energy and Time are normalized against the
// same-collective baseline (so each collective's thrifty savings are read
// off directly); PerNodeDigest hashes every rank's energy and spin time, so
// the byte-identical artifact comparison across -j covers per-node stats,
// not just the aggregates.
type ScalingRow struct {
	Nodes         int
	Collective    string
	Variant       string
	Energy        float64
	Time          float64
	Round         sim.Cycles // mean barrier-round span
	Stats         mp.Stats
	PerNodeDigest string
}

// ScalingPoints are the machine sizes of the scaling study: the paper's 64
// plus the 256/1024 points of the Bertuletti et al. many-core regime.
var ScalingPoints = []int{64, 256, 1024}

// ScalingProgram builds the phase program of the scaling study: jittered
// compute with a rotating straggler, three static barrier PCs — the same
// shape as the 64-node MP experiment, shortened to keep 1024-node runs
// affordable. Exported so cmd/thriftysim's -scaling mode runs exactly the
// workload the committed scaling artifacts were measured on.
func ScalingProgram(seed uint64, nodes, phases int) mp.Program {
	rng := sim.NewRNG(seed)
	baseAlt := []sim.Cycles{300 * sim.Microsecond, 600 * sim.Microsecond, 320 * sim.Microsecond}
	prog := make(mp.Program, phases)
	for i := range prog {
		base := baseAlt[i%3]
		straggler := rng.Intn(nodes)
		pr := rng.Split(uint64(i))
		prog[i] = mp.Phase{
			PC: uint64(0x200 + i%3),
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

// ScalingExperiment sweeps the barrier collectives — combining trees of
// radix 2/4/8/16 and dissemination — at one machine size, each run on one
// engine shard (the job pool already keeps every core busy). shards is
// unused, kept for callers that still pass it. Each collective's Baseline
// run is its Baseline row and normalizes its Thrifty row.
func ScalingExperiment(seed uint64, nodes, shards int) []ScalingRow {
	cfg := mp.DefaultConfig()
	cfg.Nodes = nodes
	cfg.NoC.Nodes = nodes
	prog := ScalingProgram(seed, nodes, 24)
	type collective struct {
		label  string
		alg    mp.Algorithm
		fanout int
	}
	cols := []collective{
		{"tree r=2", mp.TreeBarrier, 2},
		{"tree r=4", mp.TreeBarrier, 4},
		{"tree r=8", mp.TreeBarrier, 8},
		{"tree r=16", mp.TreeBarrier, 16},
		{"dissemination", mp.DisseminationBarrier, cfg.Fanout},
	}
	var rows []ScalingRow
	for _, c := range cols {
		cc := cfg
		cc.Algorithm = c.alg
		cc.Fanout = c.fanout
		var base mp.ParallelResult
		for i, opts := range []mp.Options{mp.Baseline(), mp.Thrifty()} {
			res := mp.MustNewMachine(cc, opts).RunParallel(prog, 1)
			if i == 0 {
				base = res
			}
			rows = append(rows, scalingRow(nodes, c.label, opts.Name, res, base))
		}
	}
	return rows
}

// scalingRow is res's row, normalized against base.
func scalingRow(nodes int, collective, variant string, res, base mp.ParallelResult) ScalingRow {
	n := res.Breakdown.Normalize(base.Breakdown)
	return ScalingRow{
		Nodes:         nodes,
		Collective:    collective,
		Variant:       variant,
		Energy:        n.TotalEnergy(),
		Time:          n.SpanRatio,
		Round:         res.MeanRoundLatency(),
		Stats:         res.Stats,
		PerNodeDigest: perNodeDigest(res),
	}
}

// perNodeDigest folds every rank's energy and spin time into one hash, in
// rank order, bit for bit.
func perNodeDigest(res mp.ParallelResult) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range res.PerNodeEnergy {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e))
		h.Write(buf[:])
	}
	for _, s := range res.PerNodeSpin {
		binary.LittleEndian.PutUint64(buf[:], uint64(s))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// RenderScaling formats one machine size's scaling rows.
func RenderScaling(nodes int, rows []ScalingRow) string {
	t := stats.NewTable(
		fmt.Sprintf("Scaling: barrier collectives at %d nodes (parallel engine)", nodes),
		"Collective", "Variant", "Energy", "Time", "Round", "Sleeps", "Early", "External", "Late", "Disables", "PerNode")
	for _, r := range rows {
		total := 0
		for _, n := range r.Stats.Sleeps {
			total += n
		}
		t.AddRowStrings(r.Collective, r.Variant,
			fmt.Sprintf("%.3f", r.Energy), fmt.Sprintf("%.4f", r.Time), r.Round.String(),
			fmt.Sprint(total), fmt.Sprint(r.Stats.EarlyWakes), fmt.Sprint(r.Stats.ExternalWakes),
			fmt.Sprint(r.Stats.LateWakes), fmt.Sprint(r.Stats.Disables), r.PerNodeDigest)
	}
	return t.String()
}
