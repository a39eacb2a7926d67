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

// machineAllocs reports the bytes and objects NewParallelMachine
// allocates for a Thrifty machine of nodes CPUs in regions of rn nodes.
func machineAllocs(t *testing.T, nodes, rn int) (bytes, objects uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewParallelMachine(parallelArch(nodes, rn), Thrifty())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// A 256-CPU machine of 8-node regions, core-256's shape, fits in 4 MiB
// (its 512 L1s and L2s are 2.5 MB of 8-byte ways), and its object count
// grows with its regions only: the caches, memories, nodes and CPUs come
// from slabs, so 32 regions cost at most 20 objects each whether they
// hold 8 nodes or 16. One object per node would add 8 or 16 per region.
func TestNewParallelMachineAllocs(t *testing.T) {
	bytes, objects := machineAllocs(t, 256, 8)
	_, wide := machineAllocs(t, 512, 16)
	t.Logf("256 CPUs in 8-node regions: %d bytes in %d objects; 512 CPUs in 16-node regions: %d objects", bytes, objects, wide)
	if bytes > 4<<20 {
		t.Errorf("machine allocates %d bytes, want at most 4 MiB", bytes)
	}
	if objects > 32*20 || wide > 32*20 {
		t.Errorf("32 regions cost %d objects at 8 nodes each and %d at 16, want at most 20 per region", objects, wide)
	}
}
