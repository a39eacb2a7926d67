package coherence

import (
	"sync"
	"testing"

	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
)

// The sharded core machine partitions the CC-NUMA memory system into one
// Protocol instance per NoC region and drives them from concurrent
// engine shards, with one global noc.Network shared by every shard for
// cross-region latency math. This test reproduces that sharing shape —
// two fully independent region protocols plus a shared global network —
// under concurrent load, so `go test -race` proves the audit result:
// protocol, cache, and DRAM counters are region-local (never shared
// across shards) and the network is immutable after construction.
func TestRegionProtocolsConcurrent(t *testing.T) {
	const regionNodes = 8
	rcfg := DefaultConfig()
	rcfg.Nodes = regionNodes
	ncfg := noc.DefaultConfig()
	ncfg.Nodes = regionNodes

	global := noc.New(noc.DefaultConfig()) // 64-node fabric shared by both "shards"

	newRegion := func() *Protocol {
		return New(rcfg, noc.New(ncfg), dram.NewPlacement(regionNodes, 4096))
	}
	regions := []*Protocol{newRegion(), newRegion()}

	var wg sync.WaitGroup
	for r, proto := range regions {
		wg.Add(1)
		go func(r int, p *Protocol) {
			defer wg.Done()
			base := uint64(r) << 32
			for i := 0; i < 2000; i++ {
				node := i % regionNodes
				addr := base + uint64(i%64)*64
				if i%3 == 0 {
					p.Write(node, addr, 0)
				} else {
					p.Read(node, addr, 0)
				}
				// The cross-region legs the sharded machine prices on the
				// shared fabric.
				global.Latency(r*regionNodes+node, (1-r)*regionNodes+node, 8)
				if i%101 == 0 {
					p.SetGated(node, true)
					p.FlushForSleep(node)
					p.SetGated(node, false)
				}
			}
		}(r, proto)
	}
	wg.Wait()

	for r, p := range regions {
		s := p.Stats()
		if s.Reads == 0 || s.Writes == 0 {
			t.Errorf("region %d: counters empty: %+v", r, s)
		}
	}
}
