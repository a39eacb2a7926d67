//go:build !race

package core

import (
	"runtime"
	"testing"

	"thriftybarrier/internal/cpu"
)

// The allocation guard builds without the race detector, whose
// instrumentation allocates on its own.

// A 64-CPU Thrifty run on the sequential engine allocates almost nothing
// per event once the machine is built: events are typed messages, waits
// reuse per-node state, and the directory, invalidation and flush
// buffers are recycled. The program's private writes keep the coherence
// and flush paths busy, and its rotating straggler keeps CPUs sleeping.
func TestParallelMachineAllocsPerEvent(t *testing.T) {
	const nodes, phases = 64, 24
	refs := make([][]cpu.Ref, nodes)
	for n := range refs {
		for j := 0; j < 8; j++ {
			refs[n] = append(refs[n], cpu.Ref{Addr: uint64(n)<<20 | uint64(j)<<6, Write: j%2 == 0})
		}
		refs[n] = append(refs[n], cpu.Ref{Addr: 1 << 30})
	}
	prog := make(SliceProgram, phases)
	for k := range prog {
		straggler := (7 * k) % nodes
		prog[k] = PhaseSpec{
			PC:            uint64(0x600 + k%3),
			PreemptThread: -1,
			Segment: func(t int) cpu.Segment {
				insns := int64(300_000)
				if t == straggler {
					insns += 150_000
				}
				return cpu.Segment{Instructions: insns, Refs: refs[t], RefScale: 64}
			},
		}
	}
	m, err := NewParallelMachine(parallelArch(nodes, 8), Thrifty())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := m.Run(prog, 0)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	perEvent := float64(allocs) / float64(res.Events)
	t.Logf("%d allocations over %d events (%.3f per event); sleeps %v, flushed lines %d",
		allocs, res.Events, perEvent, res.Stats.Sleeps, res.Stats.FlushLines)
	if res.Stats.FlushLines == 0 {
		t.Fatalf("run never slept with a flush (sleeps %v, flushed lines %d)", res.Stats.Sleeps, res.Stats.FlushLines)
	}
	if perEvent >= 0.1 {
		t.Fatalf("%.3f allocations per event, want < 0.1", perEvent)
	}
}
