// Imbalance sweep: how the thrifty barrier's savings grow with barrier
// imbalance.
//
// The paper's Table 2 / Figure 5 relationship in one picture: a synthetic
// application is swept from perfectly balanced to Volrend-like imbalance
// (straggler factor 0 to 1), and for each point the Thrifty and
// Thrifty-Halt energy (relative to Baseline) and the Thrifty slowdown are
// reported. Savings should track the imbalance while the slowdown stays
// bounded — the paper's headline claim.
//
// Run with:
//
//	go run ./examples/imbalance
package main

import (
	"fmt"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/stats"
	"thriftybarrier/internal/workload"
)

func main() {
	arch := core.DefaultArch().WithNodes(32)
	fmt.Println("straggler  imbalance  Thrifty-E  Halt-E   Thrifty-T   savings bar")
	for _, straggler := range []float64{0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 1.0} {
		spec := workload.Spec{
			Name:            "sweep",
			TargetImbalance: straggler / (1 + straggler),
			Iterations:      16,
			Seed:            99,
			Loop: []workload.BarrierSpec{{
				Label:     "phase",
				BaseInstr: 2_000_000,
				Straggler: straggler,
				Rotate:    true,
				Noise:     0.04,
			}},
		}
		prog := spec.Build(arch.Nodes, 1)
		base := core.Simulate(arch, core.Baseline(), prog, false)
		thr := core.Simulate(arch, core.Thrifty(), prog, false)
		hlt := core.Simulate(arch, core.ThriftyHalt(), prog, false)

		imb := base.Breakdown.SpinFraction()
		nT := thr.Breakdown.Normalize(base.Breakdown)
		nH := hlt.Breakdown.Normalize(base.Breakdown)
		fmt.Printf("%8.2f   %8.2f%%  %8.2f%% %8.2f%%  %9.4f   |%s|\n",
			straggler, imb*100, nT.TotalEnergy()*100, nH.TotalEnergy()*100,
			nT.SpanRatio, stats.Bar(1-nT.TotalEnergy(), 30))
	}
	fmt.Println("\nThrifty-E / Halt-E: normalized energy (lower is better);")
	fmt.Println("Thrifty-T: span ratio vs Baseline (1.0 = no slowdown).")
}
