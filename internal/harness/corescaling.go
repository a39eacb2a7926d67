package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/sim"
	"thriftybarrier/internal/stats"
)

// CoreScalingRow is one measurement of the core-machine scaling study:
// the full CC-NUMA machine (caches, directories, DRAM, predictor) at one
// CPU count, one check-in topology, and one waiting policy, run on the
// sequential engine. Energy and Time are normalized against the
// same-topology Baseline; PerCPUDigest hashes every CPU's energy and
// spin residency bit for bit, so the byte-identical artifact comparison
// across -j covers per-CPU state, not just aggregates.
type CoreScalingRow struct {
	Nodes        int
	Topology     string
	Variant      string
	Energy       float64
	Time         float64
	Span         sim.Cycles
	Sleeps       int
	EarlyWakes   int
	External     int
	LateWakes    int
	Disables     int
	Events       uint64
	PerCPUDigest string
}

// CoreScalingPoints are the CPU counts of the core-machine scaling
// study: the paper's 64 plus the 128/256 many-core points.
var CoreScalingPoints = []int{64, 128, 256}

// coreScalingRegion is the NoC region size of the study (and the NoC
// tree's level-0 fan-in).
const coreScalingRegion = 8

// coreScalingTreeArity is the fixed-arity tree's radix. Radix 8 keeps
// the 256-CPU fabric inside a barrier's counter-line budget and matches
// the region size, so the tree and NoC-tree differ only in counter
// placement.
const coreScalingTreeArity = 8

// CoreScalingProgram builds the speedup workload of the study: phases of
// region-local compute — each CPU streams over its own private pages and
// a page shared within its NoC region, so compute traffic never crosses
// regions and the barrier is the only global synchronization — with
// per-thread jitter and a rotating straggler (the load imbalance of the
// paper's Table 2 applications). Exported so cmd/thriftysim's
// -core-scaling mode runs exactly the workload the committed artifacts
// were measured on.
func CoreScalingProgram(seed uint64, nodes, phases int) core.Program {
	rng := sim.NewRNG(seed)
	baseAlt := []int64{300_000, 520_000, 360_000}
	regionPlace := dram.NewPlacement(coreScalingRegion, 4096)
	prog := make(core.SliceProgram, phases)
	// A CPU's references depend only on the phase and its place in its
	// region, so the program builds them once, in one array.
	const refsPerCPU = 12
	all := make([]cpu.Ref, 0, phases*coreScalingRegion*refsPerCPU)
	for i := range prog {
		base := baseAlt[i%3]
		straggler := rng.Intn(nodes)
		pr := rng.Split(uint64(i))
		first := len(all)
		for local := 0; local < coreScalingRegion; local++ {
			for j := 0; j < 8; j++ {
				all = append(all, cpu.Ref{
					Addr:  regionPlace.PrivateAddr(local, uint64(0x10000+j*64+i*4096)),
					Write: j%3 == 0,
				})
			}
			// The region-shared page: each region's protocol instance
			// is separate, so one address is automatically per-region.
			for j := 0; j < 4; j++ {
				all = append(all, cpu.Ref{
					Addr:  uint64(0x2000_0000 + j*64),
					Write: local == 0 && j == 0,
				})
			}
		}
		refs := all[first:]
		prog[i] = core.PhaseSpec{
			PC:            uint64(0x500 + i%3),
			PreemptThread: -1,
			Segment: func(t int) cpu.Segment {
				r := pr.Split(uint64(t))
				insns := int64(float64(base) * (1 + 0.02*(2*r.Float64()-1)))
				if t == straggler {
					insns += 2 * insns / 5 // Table 2 imbalance: ~40% straggler
				}
				at := t % coreScalingRegion * refsPerCPU
				return cpu.Segment{Instructions: insns, Refs: refs[at : at+refsPerCPU : at+refsPerCPU], RefScale: 64}
			},
		}
	}
	return prog
}

// coreScalingArch is the machine shape at one CPU count.
func coreScalingArch(seed uint64, nodes int) core.Arch {
	a := core.DefaultArch().WithNodes(nodes)
	a.Seed = seed
	a.RegionNodes = coreScalingRegion
	return a
}

// CoreScalingExperiment sweeps check-in topology × waiting policy at one
// CPU count, each run on the sequential engine (the job pool already keeps
// every core busy). shards is unused, kept for callers that still pass it.
// Each topology's Baseline run is its Baseline row and normalizes its
// Thrifty row.
func CoreScalingExperiment(seed uint64, nodes, shards int) []CoreScalingRow {
	prog := CoreScalingProgram(seed, nodes, 24)
	type fabric struct {
		label string
		topo  core.Topology
		arity int
	}
	fabrics := []fabric{
		{"flat", core.TopologyFlat, 0},
		{fmt.Sprintf("tree r=%d", coreScalingTreeArity), core.TopologyTree, coreScalingTreeArity},
		{"noc tree", core.TopologyNoCTree, 0},
	}
	var rows []CoreScalingRow
	for _, f := range fabrics {
		var base core.ParallelResult
		for i, opts := range []core.Options{core.Baseline(), core.Thrifty()} {
			opts.Topology = f.topo
			opts.TreeArity = f.arity
			m, err := core.NewParallelMachine(coreScalingArch(seed, nodes), opts)
			if err != nil {
				panic(err) // static sweep configuration; never user input
			}
			res := m.Run(prog, 0)
			if i == 0 {
				base = res
			}
			rows = append(rows, coreScalingRow(nodes, f.label, opts.Name, res, base))
		}
	}
	return rows
}

// coreScalingRow is res's row, normalized against base.
func coreScalingRow(nodes int, topology, variant string, res, base core.ParallelResult) CoreScalingRow {
	n := res.Breakdown.Normalize(base.Breakdown)
	total := 0
	for _, c := range res.Stats.Sleeps {
		total += c
	}
	return CoreScalingRow{
		Nodes:        nodes,
		Topology:     topology,
		Variant:      variant,
		Energy:       n.TotalEnergy(),
		Time:         n.SpanRatio,
		Span:         res.Span,
		Sleeps:       total,
		EarlyWakes:   res.Stats.EarlyWakes,
		External:     res.Stats.ExternalWakes,
		LateWakes:    res.Stats.LateWakes,
		Disables:     res.Stats.Disables,
		Events:       res.Events,
		PerCPUDigest: perCPUDigest(res),
	}
}

// perCPUDigest folds every CPU's energy and spin residency into one
// hash, in CPU order, bit for bit.
func perCPUDigest(res core.ParallelResult) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range res.PerCPUEnergy {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e))
		h.Write(buf[:])
	}
	for _, s := range res.PerCPUSpin {
		binary.LittleEndian.PutUint64(buf[:], uint64(s))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// RenderCoreScaling formats one CPU count's core-machine scaling rows.
func RenderCoreScaling(nodes int, rows []CoreScalingRow) string {
	t := stats.NewTable(
		fmt.Sprintf("Core scaling: CC-NUMA machine at %d CPUs (sharded engine)", nodes),
		"Topology", "Variant", "Energy", "Time", "Span", "Sleeps", "Early", "External", "Late", "Disables", "Events", "PerCPU")
	for _, r := range rows {
		t.AddRowStrings(r.Topology, r.Variant,
			fmt.Sprintf("%.3f", r.Energy), fmt.Sprintf("%.4f", r.Time), r.Span.String(),
			fmt.Sprint(r.Sleeps), fmt.Sprint(r.EarlyWakes), fmt.Sprint(r.External),
			fmt.Sprint(r.LateWakes), fmt.Sprint(r.Disables), fmt.Sprint(r.Events), r.PerCPUDigest)
	}
	return t.String()
}
