package coherence

import (
	"testing"

	"thriftybarrier/internal/mem/cache"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/sim"
)

func newProto(t testing.TB) *Protocol {
	t.Helper()
	cfg := DefaultConfig()
	net := noc.New(noc.DefaultConfig())
	place := dram.NewPlacement(cfg.Nodes, 4096)
	return New(cfg, net, place)
}

// remoteFills counts the accesses p served beyond a node's L2.
func remoteFills(p *Protocol) uint64 { return p.Stats().RemoteFills }

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.Nodes = 48
	if bad.Validate() == nil {
		t.Error("48 nodes accepted")
	}
	bad = cfg
	bad.L1.LineBytes = 32
	if bad.Validate() == nil {
		t.Error("mismatched line sizes accepted")
	}
}

func TestColdReadGetsExclusive(t *testing.T) {
	p := newProto(t)
	p.Read(0, 0x1000, 0)
	if got := remoteFills(p); got != 1 {
		t.Fatalf("cold read: %d remote fills, want 1", got)
	}
	if st, ok := p.L1(0).Peek(0x1000); !ok || st != cache.Exclusive {
		t.Fatalf("L1 state after cold read = %v,%v; want E", st, ok)
	}
	if st, ok := p.L2(0).Peek(0x1000); !ok || st != cache.Exclusive {
		t.Fatalf("L2 state after cold read = %v,%v; want E", st, ok)
	}
}

func TestReadHitLatencies(t *testing.T) {
	p := newProto(t)
	p.Read(0, 0x1000, 0)
	hits := p.Stats().L1Hits
	lat := p.Read(0, 0x1000, 100)
	if p.Stats().L1Hits != hits+1 || lat != p.Config().L1Hit {
		t.Fatalf("L1 hit: %d L1 hits, latency=%v", p.Stats().L1Hits-hits, lat)
	}
}

func TestSecondReaderSharesAndDowngradesOwner(t *testing.T) {
	p := newProto(t)
	p.Read(0, 0x1000, 0)
	p.Write(0, 0x1000, 10) // node 0 now Modified
	fills := remoteFills(p)
	p.Read(1, 0x1000, 100)
	if got := remoteFills(p) - fills; got != 1 {
		t.Fatalf("remote read: %d remote fills, want 1", got)
	}
	st0, _ := p.L2(0).Peek(0x1000)
	st1, _ := p.L2(1).Peek(0x1000)
	if st0 != cache.Shared || st1 != cache.Shared {
		t.Fatalf("states after sharing = %v/%v, want S/S", st0, st1)
	}
	s := p.Stats()
	if s.Forwards != 1 {
		t.Fatalf("forwards = %d, want 1", s.Forwards)
	}
	if s.Writebacks == 0 {
		t.Fatal("dirty owner forward did not write back")
	}
}

func TestWriteOnExclusiveIsSilent(t *testing.T) {
	p := newProto(t)
	p.Read(0, 0x1000, 0)
	before := p.Stats().InvalidationsSent
	if lat := p.Write(0, 0x1000, 10); lat != p.Config().L1Hit {
		t.Fatalf("E->M upgrade latency = %v, want L1 hit", lat)
	}
	if p.Stats().InvalidationsSent != before {
		t.Fatal("silent upgrade sent invalidations")
	}
	if st, _ := p.L2(0).Peek(0x1000); st != cache.Modified {
		t.Fatalf("L2 state = %v, want M", st)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	p := newProto(t)
	const addr = 0x2000
	for n := 0; n < 8; n++ {
		p.Read(n, addr, sim.Cycles(n*10))
	}
	now := sim.Cycles(1000)
	sent := p.Stats().InvalidationsSent
	lat := p.Write(3, addr, now)
	if got := p.Stats().InvalidationsSent - sent; got != 7 {
		t.Fatalf("invalidations = %d, want 7", got)
	}
	if lat <= p.Config().L1Hit {
		t.Errorf("upgrade latency %v does not wait for the invalidation acks", lat)
	}
	for n := 0; n < 8; n++ {
		if n == 3 {
			continue
		}
		for _, c := range []*cache.Cache{p.L1(n), p.L2(n)} {
			if st, ok := c.Peek(addr); ok && st.Valid() {
				t.Errorf("node %d still holds line after invalidation (%v)", n, st)
			}
		}
	}
	if st, _ := p.L2(3).Peek(addr); st != cache.Modified {
		t.Fatalf("writer state = %v, want M", st)
	}
	// Subsequent read by an invalidated sharer misses.
	fills := remoteFills(p)
	p.Read(5, addr, now+10000)
	if got := remoteFills(p) - fills; got != 1 {
		t.Fatalf("post-invalidation read: %d remote fills, want 1", got)
	}
}

func TestFlushForSleep(t *testing.T) {
	p := newProto(t)
	// Dirty a few lines on node 4.
	for i := 0; i < 10; i++ {
		addr := uint64(0x8000 + i*64)
		p.Read(4, addr, sim.Cycles(i))
		p.Write(4, addr, sim.Cycles(100+i))
	}
	if p.DirtyLines(4) != 10 {
		t.Fatalf("dirty lines = %d, want 10", p.DirtyLines(4))
	}
	lines, lat := p.FlushForSleep(4)
	if lines != 10 {
		t.Fatalf("flushed %d lines, want 10", lines)
	}
	if lat <= 0 {
		t.Fatal("flush latency not positive")
	}
	if p.DirtyLines(4) != 0 {
		t.Fatal("dirty lines remain after flush")
	}
	p.SetGated(4, true)
	// Another node can now write those lines without forwarding to node 4.
	for i := 0; i < 10; i++ {
		p.Write(5, uint64(0x8000+i*64), sim.Cycles(2000+i))
	}
	p.SetGated(4, false)
	// Flushed lines are compulsory misses for node 4 afterwards.
	fills := remoteFills(p)
	p.Read(4, 0x8000, 5000)
	if got := remoteFills(p) - fills; got != 1 {
		t.Fatalf("post-flush read: %d remote fills, want 1 (compulsory miss)", got)
	}
}

func TestFlushDowngradesCleanExclusive(t *testing.T) {
	p := newProto(t)
	p.Read(4, 0x9000, 0) // Exclusive clean
	lines, _ := p.FlushForSleep(4)
	if lines != 0 {
		t.Fatalf("clean flush wrote back %d lines", lines)
	}
	p.SetGated(4, true)
	// A remote read must be served by memory, not a forward to node 4.
	fills := remoteFills(p)
	p.Read(5, 0x9000, 200)
	if got := remoteFills(p) - fills; got != 1 {
		t.Fatalf("remote read: %d remote fills, want 1", got)
	}
	if p.Stats().Forwards != 0 {
		t.Fatal("read forwarded to a gated node")
	}
	p.SetGated(4, false)
}

func TestForwardToGatedNodePanics(t *testing.T) {
	p := newProto(t)
	p.Read(4, 0xA000, 0)
	p.Write(4, 0xA000, 10) // dirty on node 4
	p.SetGated(4, true)    // WRONG: no flush first
	defer func() {
		if recover() == nil {
			t.Error("forward to gated node did not panic")
		}
	}()
	p.Read(5, 0xA000, 100)
}

func TestGatedInvalidationAcked(t *testing.T) {
	p := newProto(t)
	const flag = 0xB000
	p.Read(6, flag, 0) // node 6 shares the flag
	p.Read(1, flag, 1)
	p.FlushForSleep(6)
	p.SetGated(6, true)
	p.Write(1, flag, 100) // invalidation to gated node 6: clean data, acked
	if p.Stats().GatedInvalidationAcks == 0 {
		t.Fatal("gated invalidation was not acked by the controller")
	}
	p.SetGated(6, false)
}

func TestRemoteLatencyExceedsLocal(t *testing.T) {
	p := newProto(t)
	place := dram.NewPlacement(64, 4096)
	// Find an address homed at node 0 and one homed far away (node 63).
	var local, remote uint64
	for a := uint64(0); ; a += 4096 {
		if place.Home(a) == 0 && local == 0 {
			local = a + 64 // skip 0 to avoid "unset" ambiguity
		}
		if place.Home(a) == 63 {
			remote = a
			break
		}
	}
	latLocal := p.Read(0, local, 0)
	latRemote := p.Read(0, remote, 0)
	if latRemote <= latLocal {
		t.Fatalf("remote fill (%v) not slower than local fill (%v)", latRemote, latLocal)
	}
}

// Single-writer invariant: after any interleaving of reads and writes, at
// most one node holds a line in M/E state, and if one does, no other node
// holds it at all.
func TestSingleWriterInvariant(t *testing.T) {
	p := newProto(t)
	rng := sim.NewRNG(99)
	const line = 0xC0C0
	for i := 0; i < 2000; i++ {
		n := rng.Intn(8)
		if rng.Bool(0.3) {
			p.Write(n, line, sim.Cycles(i*10))
		} else {
			p.Read(n, line, sim.Cycles(i*10))
		}
		owners, sharers := 0, 0
		for node := 0; node < 8; node++ {
			if st, ok := p.L2(node).Peek(line); ok {
				switch st {
				case cache.Modified, cache.Exclusive:
					owners++
				case cache.Shared:
					sharers++
				}
			}
		}
		if owners > 1 {
			t.Fatalf("step %d: %d owners", i, owners)
		}
		if owners == 1 && sharers > 0 {
			t.Fatalf("step %d: owner coexists with %d sharers", i, sharers)
		}
	}
}

// Inclusion invariant: every valid L1 line is also valid in L2.
func TestInclusionInvariant(t *testing.T) {
	p := newProto(t)
	rng := sim.NewRNG(123)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(4)
		addr := uint64(rng.Intn(1<<14)) << 6
		if rng.Bool(0.4) {
			p.Write(n, addr, sim.Cycles(i*5))
		} else {
			p.Read(n, addr, sim.Cycles(i*5))
		}
	}
	// Check inclusion by probing every address we might have touched.
	for n := 0; n < 4; n++ {
		for a := uint64(0); a < 1<<20; a += 64 {
			if st, ok := p.L1(n).Peek(a); ok && st.Valid() {
				if st2, ok2 := p.L2(n).Peek(a); !ok2 || !st2.Valid() {
					t.Fatalf("node %d: L1 holds %#x (%v) but L2 does not", n, a, st)
				}
			}
		}
	}
}
