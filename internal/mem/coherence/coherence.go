// Package coherence implements a DASH-style directory-based MESI protocol
// over the two-level per-node cache hierarchy, the hypercube network, and
// the interleaved memories (Table 1 / §4.1 of the paper). It is the
// substrate under the simulated CPUs' compute segments and the deep-sleep
// flush (§3.1). The barrier lines themselves, and with them the external
// wake-up (§3.3.1), are modeled by the core machine as explicit messages.
//
// Transactions are resolved analytically — each access computes its
// completion latency, including the invalidation round trips it waits on —
// rather than as per-message events. This keeps 64-CPU runs fast while
// still routing every protocol action through the real directory state,
// cache tags, NoC latency model, and DRAM timing. No latency depends on
// the time an access is issued.
package coherence

import (
	"fmt"
	"math/bits"

	"thriftybarrier/internal/mem/cache"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/sim"
)

// Config describes the per-node hierarchy and controller timings.
type Config struct {
	Nodes int
	L1    cache.Config
	L2    cache.Config
	// L1Hit and L2Hit are minimum round-trip latencies from the processor
	// (Table 1: 2 ns and 12 ns).
	L1Hit sim.Cycles
	L2Hit sim.Cycles
	// DirLookup is the home-directory occupancy per transaction.
	DirLookup sim.Cycles
	// Bus is the node-local memory-bus transfer time for one cache line
	// (Table 1: split-transaction, 16 B wide, 250 MHz => 64 B in 16 ns).
	Bus sim.Cycles
	// CtrlBytes and DataBytes size protocol messages for the NoC model.
	CtrlBytes int
	DataBytes int
}

// DefaultConfig reproduces Table 1 for a 64-node machine.
func DefaultConfig() Config {
	return Config{
		Nodes:     64,
		L1:        cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2},
		L2:        cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 8},
		L1Hit:     2 * sim.Nanosecond,
		L2Hit:     12 * sim.Nanosecond,
		DirLookup: 4 * sim.Nanosecond,
		Bus:       16 * sim.Nanosecond,
		CtrlBytes: 8,
		DataBytes: 72, // 64B line + 8B header
	}
}

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes > 1024 || c.Nodes&(c.Nodes-1) != 0 {
		return fmt.Errorf("coherence: node count %d not a power of two in [1,1024]", c.Nodes)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("coherence: L1/L2 line sizes differ (%d vs %d)", c.L1.LineBytes, c.L2.LineBytes)
	}
	if c.L1Hit < 0 || c.L2Hit < c.L1Hit || c.DirLookup < 0 || c.Bus < 0 {
		return fmt.Errorf("coherence: inconsistent latencies in %+v", c)
	}
	return nil
}

// sharerSet is a bitvector over a region's nodes: the first word, nodes
// 0..63, sits in the directory entry, and regions of more than 64 nodes
// (the sharded core model runs to 1024) keep the rest in the directory's
// side slab. forEach visits set bits in ascending node order, which keeps
// invalidation delivery order — and therefore the simulation —
// deterministic.
type sharerSet struct {
	word *uint64  // nodes 0..63
	ext  []uint64 // nodes 64..; word i covers 64*(i+1)..64*(i+2)-1
}

func (s sharerSet) has(n int) bool {
	if n < 64 {
		return *s.word&(1<<uint(n)) != 0
	}
	return s.ext[n/64-1]&(1<<uint(n%64)) != 0
}

func (s sharerSet) add(n int) {
	if n < 64 {
		*s.word |= 1 << uint(n)
		return
	}
	s.ext[n/64-1] |= 1 << uint(n%64)
}

func (s sharerSet) remove(n int) {
	if n < 64 {
		*s.word &^= 1 << uint(n)
		return
	}
	s.ext[n/64-1] &^= 1 << uint(n%64)
}

func (s sharerSet) empty() bool {
	if *s.word != 0 {
		return false
	}
	for _, w := range s.ext {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s sharerSet) clear() {
	*s.word = 0
	clear(s.ext)
}

func (s sharerSet) forEach(f func(int)) {
	for v := *s.word; v != 0; v &= v - 1 {
		f(bits.TrailingZeros64(v))
	}
	for i, w := range s.ext {
		for v := w; v != 0; v &= v - 1 {
			f(64*(i+1) + bits.TrailingZeros64(v))
		}
	}
}

// dirState is the directory's view of a line.
type dirState uint8

const (
	dirUncached dirState = iota
	dirShared
	dirExclusive // single owner, possibly dirty
)

// dirEntry is one line's directory state, 16 bytes: the sharer bits of
// nodes 0..63 (the rest are in the directory's side slab), the owner of
// a dirExclusive line, and the state.
type dirEntry struct {
	word  uint64
	owner int32
	state dirState
}

// Protocol is the machine-wide coherence engine: all directories, caches,
// and memories.
type Protocol struct {
	cfg   Config
	net   *noc.Network
	place *dram.Placement
	mems  []dram.Memory
	l1s   []cache.Cache
	l2s   []cache.Cache
	dir   directory
	gated []bool
	// flushed backs the line lists of FlushForSleep.
	flushed []uint64

	stats Stats
}

// Stats aggregates protocol activity.
type Stats struct {
	Reads, Writes         uint64
	L1Hits, L2Hits        uint64
	RemoteFills           uint64
	InvalidationsSent     uint64
	Forwards              uint64
	Writebacks            uint64
	FlushedLines          uint64
	GatedInvalidationAcks uint64
}

// New builds the protocol engine. The network and placement must agree with
// cfg.Nodes.
func New(cfg Config, net *noc.Network, place *dram.Placement) *Protocol {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if net.Config().Nodes != cfg.Nodes || place.Nodes() != cfg.Nodes {
		panic("coherence: network/placement node count mismatch")
	}
	// All caches share one slab, and all memories another, so building a
	// protocol costs the same few allocations at any node count.
	caches := cache.NewSlab(cfg.Nodes, cfg.L1, cfg.L2)
	return &Protocol{
		cfg:   cfg,
		net:   net,
		place: place,
		mems:  dram.NewSlab(cfg.Nodes, dram.DefaultConfig()),
		l1s:   caches[:cfg.Nodes],
		l2s:   caches[cfg.Nodes:],
		dir:   newDirectory(cfg.Nodes),
		gated: make([]bool, cfg.Nodes),
	}
}

// Config returns the protocol configuration.
func (p *Protocol) Config() Config { return p.cfg }

// Stats returns a snapshot of activity counters.
func (p *Protocol) Stats() Stats { return p.stats }

// LineAddr aligns addr to its cache line.
func (p *Protocol) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(p.cfg.L1.LineBytes) - 1)
}

// SetGated marks node's caches as unable to respond to protocol requests
// (deep sleep states Sleep2/Sleep3, §3.1). The caller must have flushed the
// node first (FlushForSleep); a forward to a gated node panics, because the
// paper's design guarantees it cannot happen.
func (p *Protocol) SetGated(node int, gated bool) {
	p.gated[node] = gated
}

// Gated reports whether node's caches are gated.
func (p *Protocol) Gated(node int) bool { return p.gated[node] }

// invalidate drops the line from node's caches.
func (p *Protocol) invalidate(node int, line uint64) {
	p.l1s[node].Invalidate(line)
	p.l2s[node].Invalidate(line)
	if p.gated[node] {
		// The controller acknowledges invalidations to clean data
		// immediately and defers internal action (§3.1). In the model the
		// internal action is the tag update above; the timing difference is
		// unobservable while the CPU sleeps.
		p.stats.GatedInvalidationAcks++
	}
	p.stats.InvalidationsSent++
}

// fillLine installs a line in node's L1+L2 with the given state, handling
// inclusive-hierarchy evictions (L2 victim invalidates its L1 copy and, if
// dirty, is written back and its directory entry cleared).
func (p *Protocol) fillLine(node int, line uint64, st cache.LineState) {
	if v, evicted := p.l2s[node].Insert(line, st); evicted {
		p.l1s[node].Invalidate(v.Addr)
		p.evictFromDirectory(node, v.Addr, v.Dirty)
	}
	if v, evicted := p.l1s[node].Insert(line, st); evicted && v.Dirty {
		// L1 victim writes back into L2 (which must hold it — inclusion).
		p.l2s[node].SetState(v.Addr, cache.Modified)
	}
}

// evictFromDirectory updates the directory when node silently drops line
// (replacement). Dirty victims write back to the home memory.
func (p *Protocol) evictFromDirectory(node int, line uint64, dirty bool) {
	e, ok := p.dir.lookup(line)
	if !ok {
		return
	}
	switch e.state {
	case dirShared:
		e.sharers.remove(node)
		if e.sharers.empty() {
			p.dir.remove(line)
		}
	case dirExclusive:
		if int(e.owner) == node {
			p.dir.remove(line)
			if dirty {
				p.stats.Writebacks++
				p.mems[p.place.Home(line)].Access(line)
			}
		}
	}
}

// Read performs a processor load issued at absolute time now and returns
// its latency. The analytic latency does not depend on now.
func (p *Protocol) Read(node int, addr uint64, now sim.Cycles) sim.Cycles {
	p.stats.Reads++
	line := p.LineAddr(addr)
	if st, hit := p.l1s[node].Lookup(line); hit && st.Valid() {
		p.stats.L1Hits++
		return p.cfg.L1Hit
	}
	if st, hit := p.l2s[node].Lookup(line); hit && st.Valid() {
		p.stats.L2Hits++
		p.l1s[node].Insert(line, st)
		return p.cfg.L2Hit
	}
	return p.readMiss(node, line)
}

func (p *Protocol) readMiss(node int, line uint64) sim.Cycles {
	p.stats.RemoteFills++
	home := p.place.Home(line)
	e := p.dir.entry(line)
	// Request travels to the home directory.
	lat := p.cfg.L2Hit + p.net.Latency(node, home, p.cfg.CtrlBytes) + p.cfg.DirLookup

	switch e.state {
	case dirUncached:
		lat += p.mems[home].Access(line) + p.cfg.Bus
		lat += p.net.Latency(home, node, p.cfg.DataBytes)
		e.state = dirExclusive
		e.owner = int32(node)
		e.sharers.clear()
		p.fillLine(node, line, cache.Exclusive)

	case dirShared:
		lat += p.mems[home].Access(line) + p.cfg.Bus
		lat += p.net.Latency(home, node, p.cfg.DataBytes)
		e.sharers.add(node)
		p.fillLine(node, line, cache.Shared)

	case dirExclusive:
		owner := int(e.owner)
		if owner == node {
			// Stale directory after a silent L1-only drop cannot happen
			// (inclusion); owner==node with a cache miss means the L2
			// replaced it and evictFromDirectory ran — treat as uncached.
			lat += p.mems[home].Access(line) + p.cfg.Bus
			lat += p.net.Latency(home, node, p.cfg.DataBytes)
			p.fillLine(node, line, cache.Exclusive)
			break
		}
		if p.gated[owner] {
			panic(fmt.Sprintf("coherence: forward to gated node %d for line %#x (flush-before-sleep violated)", owner, line))
		}
		// Forward to owner; owner supplies data to requester and writes
		// back to home (DASH-style sharing writeback).
		p.stats.Forwards++
		lat += p.net.Latency(home, owner, p.cfg.CtrlBytes)
		lat += p.cfg.L2Hit // owner cache readout
		lat += p.net.Latency(owner, node, p.cfg.DataBytes)
		if st, ok := p.l2s[owner].Peek(line); ok && st.Dirty() {
			p.stats.Writebacks++
			p.mems[home].Access(line)
		}
		p.l1s[owner].SetState(line, cache.Shared)
		p.l2s[owner].SetState(line, cache.Shared)
		e.state = dirShared
		e.sharers.clear()
		e.sharers.add(owner)
		e.sharers.add(node)
		p.fillLine(node, line, cache.Shared)
	}
	return lat
}

// Write performs a processor store issued at absolute time now and returns
// its latency, which includes invalidating the other sharers. The analytic
// latency does not depend on now.
func (p *Protocol) Write(node int, addr uint64, now sim.Cycles) sim.Cycles {
	p.stats.Writes++
	line := p.LineAddr(addr)
	if st, hit := p.l1s[node].Lookup(line); hit {
		switch st {
		case cache.Modified:
			p.stats.L1Hits++
			return p.cfg.L1Hit
		case cache.Exclusive:
			p.stats.L1Hits++
			p.l1s[node].SetState(line, cache.Modified)
			p.l2s[node].SetState(line, cache.Modified)
			return p.cfg.L1Hit
		case cache.Shared:
			return p.upgrade(node, line, p.cfg.L1Hit)
		}
	}
	if st, hit := p.l2s[node].Lookup(line); hit {
		switch st {
		case cache.Modified, cache.Exclusive:
			p.stats.L2Hits++
			p.l2s[node].SetState(line, cache.Modified)
			p.fillLine(node, line, cache.Modified)
			return p.cfg.L2Hit
		case cache.Shared:
			return p.upgrade(node, line, p.cfg.L2Hit)
		}
	}
	return p.writeMiss(node, line)
}

// upgrade handles a store hit on a Shared line: ask home to invalidate the
// other sharers, then take ownership.
func (p *Protocol) upgrade(node int, line uint64, probe sim.Cycles) sim.Cycles {
	home := p.place.Home(line)
	e := p.dir.entry(line)
	lat := probe + p.net.Latency(node, home, p.cfg.CtrlBytes) + p.cfg.DirLookup

	var ackMax sim.Cycles
	e.sharers.forEach(func(s int) {
		if s == node {
			return
		}
		invLat := p.net.Latency(home, s, p.cfg.CtrlBytes)
		p.invalidate(s, line)
		// Ack travels sharer -> requester.
		if total := invLat + p.net.Latency(s, node, p.cfg.CtrlBytes); total > ackMax {
			ackMax = total
		}
	})
	lat += ackMax
	e.state = dirExclusive
	e.owner = int32(node)
	e.sharers.clear()
	p.l1s[node].SetState(line, cache.Modified)
	p.l2s[node].SetState(line, cache.Modified)
	p.fillLine(node, line, cache.Modified)
	return lat
}

// writeMiss handles a store with no local copy (read-for-ownership).
func (p *Protocol) writeMiss(node int, line uint64) sim.Cycles {
	p.stats.RemoteFills++
	home := p.place.Home(line)
	e := p.dir.entry(line)
	lat := p.cfg.L2Hit + p.net.Latency(node, home, p.cfg.CtrlBytes) + p.cfg.DirLookup

	switch e.state {
	case dirUncached:
		lat += p.mems[home].Access(line) + p.cfg.Bus
		lat += p.net.Latency(home, node, p.cfg.DataBytes)

	case dirShared:
		memLat := p.mems[home].Access(line) + p.cfg.Bus
		var ackMax sim.Cycles
		e.sharers.forEach(func(s int) {
			if s == node {
				return
			}
			invLat := p.net.Latency(home, s, p.cfg.CtrlBytes)
			p.invalidate(s, line)
			if total := invLat + p.net.Latency(s, node, p.cfg.CtrlBytes); total > ackMax {
				ackMax = total
			}
		})
		dataLat := memLat + p.net.Latency(home, node, p.cfg.DataBytes)
		if ackMax > dataLat {
			lat += ackMax
		} else {
			lat += dataLat
		}

	case dirExclusive:
		owner := int(e.owner)
		if owner != node {
			if p.gated[owner] {
				panic(fmt.Sprintf("coherence: forward to gated node %d for line %#x (flush-before-sleep violated)", owner, line))
			}
			p.stats.Forwards++
			fwd := p.net.Latency(home, owner, p.cfg.CtrlBytes)
			p.invalidate(owner, line)
			lat += fwd + p.cfg.L2Hit + p.net.Latency(owner, node, p.cfg.DataBytes)
		} else {
			lat += p.mems[home].Access(line) + p.cfg.Bus
			lat += p.net.Latency(home, node, p.cfg.DataBytes)
		}
	}
	e.state = dirExclusive
	e.owner = int32(node)
	e.sharers.clear()
	p.fillLine(node, line, cache.Modified)
	return lat
}

// FlushForSleep prepares node's caches for a deep (gated) sleep state:
// every dirty line is written back to its home memory and invalidated, and
// clean-exclusive lines are downgraded to Shared so the directory never
// needs to forward a request to the sleeping cache (§3.1). It returns the
// number of lines written back and the time the flush occupies the
// processor before it can enter the sleep state.
func (p *Protocol) FlushForSleep(node int) (lines int, latency sim.Cycles) {
	p.flushed = p.l1s[node].FlushDirty(p.flushed[:0])
	for _, line := range p.flushed {
		// L1 dirty lines fold into L2 (inclusion) before the L2 flush; if
		// the L2 copy lost dirtiness tracking, restore it.
		p.l2s[node].SetState(line, cache.Modified)
	}
	p.flushed = p.l2s[node].FlushDirty(p.flushed[:0])
	dirty := p.flushed
	var maxNet sim.Cycles
	for _, line := range dirty {
		home := p.place.Home(line)
		p.mems[home].Access(line)
		if l := p.net.Latency(node, home, p.cfg.DataBytes); l > maxNet {
			maxNet = l
		}
		p.dir.remove(line) // back to uncached
		p.stats.Writebacks++
		p.stats.FlushedLines++
	}
	// Downgrade clean-exclusive lines so no forward ever targets this node.
	p.downgradeExclusives(node)
	lines = len(dirty)
	// Writebacks stream over the node bus (one line per Bus slot) and the
	// last one must reach its home before the cache may be gated.
	latency = sim.Cycles(lines)*p.cfg.Bus + maxNet
	return lines, latency
}

// downgradeExclusives converts node-owned clean Exclusive directory entries
// to Shared{node}. It walks node's L2 rather than the directory: every
// dirExclusive entry's owner holds the line in its L2 (fills, evictions and
// invalidations keep the two in step), and the dirty lines have just been
// flushed, so the owner's Exclusive L2 lines are exactly the entries to
// downgrade.
func (p *Protocol) downgradeExclusives(node int) {
	l1, l2 := &p.l1s[node], &p.l2s[node]
	l2.EachExclusive(func(line uint64) {
		e, ok := p.dir.lookup(line)
		if !ok || e.state != dirExclusive || int(e.owner) != node {
			return
		}
		l1.SetState(line, cache.Shared)
		l2.SetState(line, cache.Shared)
		e.state = dirShared
		e.sharers.clear()
		e.sharers.add(node)
	})
}

// DirtyLines reports how many dirty lines node currently holds (used by the
// sleep policy to estimate flush cost).
func (p *Protocol) DirtyLines(node int) int {
	return p.l2s[node].DirtyCount()
}

// L1 exposes node's L1 cache for inspection in tests.
func (p *Protocol) L1(node int) *cache.Cache { return &p.l1s[node] }

// L2 exposes node's L2 cache for inspection in tests.
func (p *Protocol) L2(node int) *cache.Cache { return &p.l2s[node] }

// Memory exposes node's DRAM for inspection in tests.
func (p *Protocol) Memory(node int) *dram.Memory { return &p.mems[node] }
