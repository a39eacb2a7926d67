//go:build !race

package coherence

import (
	"testing"

	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
)

// The allocation guard builds without the race detector, whose
// instrumentation allocates on its own.

// Building a protocol costs the same few allocations at any node count:
// all caches share one slab of ways and all memories one of open rows.
func TestNewAllocs(t *testing.T) {
	for _, nodes := range []int{1, 8, 64, 1024} {
		cfg := DefaultConfig()
		cfg.Nodes = nodes
		ncfg := noc.DefaultConfig()
		ncfg.Nodes = nodes
		net, place := noc.New(ncfg), dram.NewPlacement(nodes, 4096)
		if n := testing.AllocsPerRun(5, func() { New(cfg, net, place) }); n > 8 {
			t.Errorf("New at %d nodes: %v allocations, want at most 8", nodes, n)
		}
	}
}
