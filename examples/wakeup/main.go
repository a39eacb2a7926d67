// Wake-up mechanisms and the overprediction cut-off on the Ocean
// pathology.
//
// Ocean's barrier interval times swing sharply between instances, so
// last-value prediction overshoots after every long instance (§5.2 of the
// paper). This example shows:
//
//  1. internal-only wake-up without a cut-off: unbounded lateness ripples
//     through subsequent intervals;
//  2. hybrid wake-up without a cut-off: the external invalidation bounds
//     each miss to one exit transition (+flush effects), but the aggregate
//     still costs ~10% — the paper's "as much as 12%";
//  3. hybrid with the 10% cut-off: prediction is disabled per
//     (thread, barrier) after the first bad miss, containing losses — the
//     paper's 3.5%.
//
// Run with:
//
//	go run ./examples/wakeup
package main

import (
	"fmt"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/workload"
)

func main() {
	arch := core.DefaultArch()
	spec := workload.Ocean()
	prog := spec.Build(arch.Nodes, 1)
	base := core.Simulate(arch, core.Baseline(), prog, false)
	fmt.Printf("Ocean on %d nodes: baseline span %v, imbalance %.2f%%\n\n",
		arch.Nodes, base.Span, base.Breakdown.SpinFraction()*100)
	fmt.Printf("%-34s %8s %8s %7s %7s %7s\n", "variant", "energy", "time", "ext", "late", "disab")

	run := func(label string, opts core.Options) {
		res := core.Simulate(arch, opts, prog, false)
		n := res.Breakdown.Normalize(base.Breakdown)
		fmt.Printf("%-34s %7.2f%% %7.2f%% %7d %7d %7d\n",
			label, n.TotalEnergy()*100, n.SpanRatio*100,
			res.Stats.ExternalWakes, res.Stats.LateWakes, res.Stats.Disables)
	}

	internalNoCut := core.Thrifty()
	internalNoCut.Wakeup = core.WakeupInternal
	internalNoCut.Cutoff = 0
	run("internal-only, no cut-off", internalNoCut)

	hybridNoCut := core.Thrifty()
	hybridNoCut.Cutoff = 0
	run("hybrid, no cut-off", hybridNoCut)

	externalOnly := core.Thrifty()
	externalOnly.Wakeup = core.WakeupExternal
	run("external-only, 10% cut-off", externalOnly)

	run("hybrid, 10% cut-off (paper)", core.Thrifty())

	run("oracle halt (perfect prediction)", core.OracleHalt())

	fmt.Println("\nThe hybrid mechanism bounds each late wake to one exit transition;")
	fmt.Println("the cut-off stops the repeated misses Ocean's swinging intervals cause.")
}
