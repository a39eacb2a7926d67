//go:build !race

package mp

import "testing"

// The allocation guard builds without the race detector, whose
// instrumentation allocates on its own.

// A run's allocations grow with its phase count by the events' closures
// alone: a finished episode's node-length slices serve a later phase, so
// no phase allocates an episode of its own. Under Baseline (no sleep
// timers) on the combining tree a phase posts three closures per rank,
// less one: each rank's arrival, each non-root rank's fold to its
// parent, and each rank's release delivery.
func TestRunParallelAllocsPerPhase(t *testing.T) {
	const nodes = 64
	allocs := func(phases int) float64 {
		prog := jitterProgram(0x200, phases, 100_000)
		m := MustNewMachine(testConfig(nodes), Baseline())
		return testing.AllocsPerRun(3, func() { m.RunParallel(prog, 1) })
	}
	short, long := allocs(16), allocs(64)
	perPhase := (long - short) / 48
	if want := float64(3*nodes - 1); perPhase > want {
		t.Fatalf("RunParallel allocated %v times per phase (%v at 16 phases, %v at 64), want at most %v: the events' closures",
			perPhase, short, long, want)
	}
}
