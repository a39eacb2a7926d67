package coherence

import (
	"fmt"
	"testing"

	"thriftybarrier/internal/mem/cache"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/sim"
)

// newRegionProto builds an 8-node protocol, the size of one NoC region of
// the sharded core machine.
func newRegionProto() *Protocol {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	ncfg := noc.DefaultConfig()
	ncfg.Nodes = 8
	return New(cfg, noc.New(ncfg), dram.NewPlacement(8, 4096))
}

// eachEntry calls f with every directory entry and its line.
func eachEntry(p *Protocol, f func(line uint64, e dirLine)) {
	for _, b := range p.dir.index.buckets {
		if b.slot != 0 {
			f(b.line, p.dir.at(b.slot-1))
		}
	}
}

// checkDirectory asserts the directory invariants FlushForSleep relies on:
// every dirExclusive entry's owner holds the line in its L2 as E or M, and
// every dirShared entry has at least one sharer.
func checkDirectory(p *Protocol) (err error) {
	eachEntry(p, func(line uint64, e dirLine) {
		if err != nil {
			return
		}
		switch e.state {
		case dirExclusive:
			st, ok := p.l2s[e.owner].Peek(line)
			if !ok || (st != cache.Exclusive && st != cache.Modified) {
				err = fmt.Errorf("line %#x: dirExclusive owner %d holds it as %v (present %v)", line, e.owner, st, ok)
			}
		case dirShared:
			if e.sharers.empty() {
				err = fmt.Errorf("line %#x: dirShared with no sharers", line)
			}
		}
	})
	return err
}

// Property: random reads, writes and flush-then-gate sleeps keep the
// directory consistent with the caches after every step, and a flushed
// node owns no directory entry — so no request is ever forwarded to a
// gated cache, and downgradeExclusives can find every entry it must
// downgrade by walking the node's own L2.
func TestDirectoryInvariantUnderSleep(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto func() *Protocol
		steps int
	}{
		{"region-8", newRegionProto, 4000},
		{"nodes-64", func() *Protocol { return newProto(t) }, 4000},
	} {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				p := tc.proto()
				nodes := p.Config().Nodes
				rng := sim.NewRNG(seed)
				evictions := 0
				for i := 0; i < tc.steps; i++ {
					now := sim.Cycles(i * 10)
					n := rng.Intn(nodes)
					// A quarter of accesses go to 16 hot lines so lines
					// are shared, forwarded and invalidated. The rest go
					// to 32 lines in each of 8 L2 sets, four times its
					// ways, so lines are evicted too: half of those
					// lines are the node's own, so its L2 fills up even
					// at 64 nodes.
					line := uint64(rng.Intn(8)+128*rng.Intn(32)) << 6
					switch r := rng.Intn(4); {
					case r == 0:
						line = uint64(rng.Intn(16)) << 6
					case r >= 2:
						line |= uint64(n+1) << 24
					}
					switch {
					case p.Gated(n):
						p.SetGated(n, false) // the sleeper wakes
					case rng.Bool(0.02):
						p.FlushForSleep(n)
						eachEntry(p, func(l uint64, e dirLine) {
							if e.state == dirExclusive && int(e.owner) == n {
								t.Fatalf("step %d: node %d still owns line %#x after FlushForSleep", i, n, l)
							}
						})
						if d := p.DirtyLines(n); d != 0 {
							t.Fatalf("step %d: node %d has %d dirty lines after FlushForSleep", i, n, d)
						}
						p.SetGated(n, true)
					default:
						// A fill into n's L2 that leaves its line count
						// unchanged replaced a line.
						before := p.L2(n).ValidCount()
						_, present := p.L2(n).Peek(line)
						if rng.Bool(0.35) {
							p.Write(n, line, now)
						} else {
							p.Read(n, line, now)
						}
						if !present && p.L2(n).ValidCount() == before {
							evictions++
						}
					}
					if err := checkDirectory(p); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				// The run must have reached every path the invariants
				// guard: forwards, invalidations of gated sharers, flushed
				// dirty lines and L2 replacements.
				s := p.Stats()
				if s.Forwards == 0 || s.GatedInvalidationAcks == 0 || s.FlushedLines == 0 || evictions == 0 {
					t.Fatalf("run missed a protocol path: %+v, L2 evictions %d", s, evictions)
				}
			})
		}
	}
}
