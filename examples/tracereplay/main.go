// Trace replay: estimate what the thrifty barrier would save on YOUR
// application.
//
// The workflow a user follows with a real program is: instrument each
// barrier with per-thread timestamps, dump one CSV line per dynamic
// barrier instance ("pc,dur0us,dur1us,..."), and replay it through the
// simulated machine under every configuration. This example generates a
// plausible measured trace (an 8-thread app with one imbalanced loop
// barrier and one balanced one), writes it to a temp file the way a user
// would, and replays it.
//
// Run with:
//
//	go run ./examples/tracereplay
package main

import (
	"fmt"
	"os"
	"strings"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/sim"
	"thriftybarrier/internal/workload"
)

func main() {
	// 1. "Measure" an application: 20 iterations of two barriers; the
	//    first has a rotating straggler (~4x), the second is balanced.
	rng := sim.NewRNG(7)
	var sb strings.Builder
	sb.WriteString("# pc, per-thread phase durations in microseconds\n")
	for it := 0; it < 20; it++ {
		sb.WriteString("0x1000")
		for th := 0; th < 8; th++ {
			d := 200 * (1 + 0.05*(2*rng.Float64()-1))
			if th == it%8 {
				d *= 4
			}
			fmt.Fprintf(&sb, ", %.1f", d)
		}
		sb.WriteString("\n0x2000")
		for th := 0; th < 8; th++ {
			fmt.Fprintf(&sb, ", %.1f", 80*(1+0.05*(2*rng.Float64()-1)))
		}
		sb.WriteString("\n")
	}
	path := "/tmp/thrifty-example-trace.csv"
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("wrote a sample measured trace to %s\n\n", path)

	// 2. Replay it under every configuration.
	f, err := os.Open(path)
	if err != nil {
		panic(err)
	}
	phases, err := workload.ParseTrace(f)
	f.Close()
	if err != nil {
		panic(err)
	}
	arch := core.DefaultArch().WithNodes(workload.TraceThreads(phases))
	prog, err := workload.BuildTrace(phases, arch.CPU.IPC)
	if err != nil {
		panic(err)
	}

	base := core.Simulate(arch, core.Baseline(), prog, false)
	fmt.Printf("replayed %d barrier instances on %d threads; measured imbalance %.1f%%\n\n",
		prog.Phases(), arch.Nodes, base.Breakdown.SpinFraction()*100)
	fmt.Printf("%-13s %10s %10s\n", "config", "energy", "time")
	for _, opts := range core.Configurations() {
		res := core.Simulate(arch, opts, prog, false)
		n := res.Breakdown.Normalize(base.Breakdown)
		fmt.Printf("%-13s %9.2f%% %9.2f%%\n", opts.Name, n.TotalEnergy()*100, n.SpanRatio*100)
	}
	fmt.Println("\n(the same replay is available as: thriftysim -trace", path+")")
}
