// Package cache implements the set-associative write-back cache model used
// for both levels of the per-node cache hierarchy (L1 16 kB 2-way, L2 64 kB
// 8-way, 64-byte lines — Table 1 of the paper). Line coherence states are
// kept here so that the directory protocol package can import this one
// without a cycle.
package cache

import (
	"fmt"
	"math/bits"
)

// LineState is the MESI state of a cached line, maintained by the directory
// protocol in package coherence.
type LineState uint8

const (
	// Invalid marks an empty or invalidated way.
	Invalid LineState = iota
	// Shared is a clean copy that other caches may also hold.
	Shared
	// Exclusive is a clean copy no other cache holds.
	Exclusive
	// Modified is a dirty copy no other cache holds.
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("LineState(%d)", uint8(s))
	}
}

// Dirty reports whether the state requires a writeback on eviction or flush.
func (s LineState) Dirty() bool { return s == Modified }

// Valid reports whether the line holds data.
func (s LineState) Valid() bool { return s != Invalid }

// Config describes a cache's geometry.
type Config struct {
	// SizeBytes is total capacity.
	SizeBytes int
	// LineBytes is the line (block) size.
	LineBytes int
	// Ways is the associativity.
	Ways int
}

// Sets computes the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Validate reports a descriptive error for impossible geometries.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line*ways %d", c.SizeBytes, c.LineBytes*c.Ways)
	}
	if s := c.Sets(); s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", s)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	return nil
}

// line is one way of one set.
type line struct {
	tag   uint64
	state LineState
	// lru is a per-set logical timestamp; larger = more recently used.
	lru uint64
}

// Victim describes a line displaced by Insert or Flush.
type Victim struct {
	Addr  uint64 // line-aligned address of the displaced line
	Dirty bool   // true if the displaced line required writeback
}

// Cache is a single-level set-associative write-back cache. It tracks tags
// and coherence states only — the simulator never stores data contents.
// The zero value is unusable; construct with New.
type Cache struct {
	cfg       Config
	lines     []line // set s holds ways lines[s*Ways : (s+1)*Ways]
	setMask   uint64
	lineShift uint
	clock     uint64 // LRU clock
	// count holds the number of ways in each LineState, so the dirty and
	// exclusive populations are known without a scan. count[Invalid]
	// includes never-filled ways.
	count [4]int
	// dirty and excl locate the Modified and Exclusive ways by set, so
	// FlushDirty and EachExclusive visit only the sets that hold them.
	dirty, excl setIndex

	// Stats.
	hits, misses, evictions, writebacks uint64
}

// New builds a cache from cfg, panicking on invalid geometry (geometries
// are static configuration; an invalid one is a programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	c := &Cache{
		cfg:       cfg,
		lines:     make([]line, cfg.Sets()*cfg.Ways),
		setMask:   uint64(cfg.Sets() - 1),
		lineShift: shift,
	}
	c.count[Invalid] = len(c.lines)
	// One allocation each for both indexes' counts and bitmaps.
	n, words := cfg.Sets(), (cfg.Sets()+63)/64
	counts, marks := make([]int32, 2*n), make([]uint64, 2*words)
	c.dirty = setIndex{n: counts[:n:n], bits: marks[:words:words]}
	c.excl = setIndex{n: counts[n:], bits: marks[words:]}
	return c
}

// setState moves ln, a way of set, to st, keeping the per-state counts.
func (c *Cache) setState(set uint64, ln *line, st LineState) {
	old := ln.state
	c.count[old]--
	c.count[st]++
	ln.state = st
	switch old {
	case Modified:
		c.dirty.add(set, -1)
	case Exclusive:
		c.excl.add(set, -1)
	}
	switch st {
	case Modified:
		c.dirty.add(set, 1)
	case Exclusive:
		c.excl.add(set, 1)
	}
}

// setIndex counts one state's ways in each set and marks, one bit per
// set, the sets where that count is nonzero.
type setIndex struct {
	n    []int32
	bits []uint64
}

// add changes set's count by d (±1), marking or unmarking the set when
// the count leaves or reaches zero.
func (x *setIndex) add(set uint64, d int32) {
	n := x.n[set] + d
	x.n[set] = n
	switch n {
	case 0:
		x.bits[set/64] &^= 1 << (set % 64)
	case d:
		x.bits[set/64] |= 1 << (set % 64)
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// set returns the ways of set s.
func (c *Cache) set(s uint64) []line {
	i := int(s) * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways : i+c.cfg.Ways]
}

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	l := addr >> c.lineShift
	return l & c.setMask, l >> 0 // tag keeps full line number; simpler and unambiguous
}

// Lookup probes the cache. On a hit it refreshes LRU and returns the line's
// state; on a miss it returns Invalid.
func (c *Cache) Lookup(addr uint64) (LineState, bool) {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		ln := &ways[i]
		if ln.state.Valid() && ln.tag == tag {
			c.clock++
			ln.lru = c.clock
			c.hits++
			return ln.state, true
		}
	}
	c.misses++
	return Invalid, false
}

// Peek probes without updating LRU or statistics.
func (c *Cache) Peek(addr uint64) (LineState, bool) {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		ln := &ways[i]
		if ln.state.Valid() && ln.tag == tag {
			return ln.state, true
		}
	}
	return Invalid, false
}

// Insert fills addr's line with the given state, evicting the LRU way if
// the set is full. It returns the victim, if any. Inserting a line that is
// already present just updates its state.
func (c *Cache) Insert(addr uint64, state LineState) (Victim, bool) {
	if state == Invalid {
		panic("cache: Insert with Invalid state")
	}
	set, tag := c.index(addr)
	ways := c.set(set)
	// Already present: update in place.
	for i := range ways {
		if ways[i].state.Valid() && ways[i].tag == tag {
			c.clock++
			c.setState(set, &ways[i], state)
			ways[i].lru = c.clock
			return Victim{}, false
		}
	}
	// Prefer an invalid way.
	victimIdx := -1
	for i := range ways {
		if !ways[i].state.Valid() {
			victimIdx = i
			break
		}
	}
	var victim Victim
	evicted := false
	if victimIdx < 0 {
		// Evict LRU.
		victimIdx = 0
		for i := 1; i < len(ways); i++ {
			if ways[i].lru < ways[victimIdx].lru {
				victimIdx = i
			}
		}
		v := ways[victimIdx]
		victim = Victim{Addr: v.tag << c.lineShift, Dirty: v.state.Dirty()}
		evicted = true
		c.evictions++
		if victim.Dirty {
			c.writebacks++
		}
	}
	c.clock++
	c.setState(set, &ways[victimIdx], state)
	ways[victimIdx].tag = tag
	ways[victimIdx].lru = c.clock
	return victim, evicted
}

// SetState updates the coherence state of a present line. It reports false
// if the line is absent.
func (c *Cache) SetState(addr uint64, state LineState) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		ln := &ways[i]
		if ln.state.Valid() && ln.tag == tag {
			c.setState(set, ln, state)
			return true
		}
	}
	return false
}

// Invalidate drops the line if present, reporting whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		ln := &ways[i]
		if ln.state.Valid() && ln.tag == tag {
			wasDirty = ln.state.Dirty()
			c.setState(set, ln, Invalid)
			return wasDirty, true
		}
	}
	return false, false
}

// FlushDirty writes back and invalidates every dirty line, appending their
// line addresses to dst and returning the extended slice. This models the
// flush a processor performs before entering a deep sleep state whose
// cache cannot respond to protocol interventions (§3.1): the data must
// reach a safe place, and subsequent accesses become compulsory misses.
// Lines come in set and way order, and only the sets holding a dirty line
// are visited.
func (c *Cache) FlushDirty(dst []uint64) []uint64 {
	for wi, w := range c.dirty.bits {
		for ; w != 0; w &= w - 1 {
			set := uint64(64*wi + bits.TrailingZeros64(w))
			ways := c.set(set)
			for i := range ways {
				if ways[i].state == Modified {
					dst = append(dst, ways[i].tag<<c.lineShift)
					c.setState(set, &ways[i], Invalid)
					c.writebacks++
				}
			}
		}
	}
	return dst
}

// EachExclusive calls f with the line address of every Exclusive line, in
// set and way order, visiting only the sets that hold one. f may change
// the state of the line it is given (SetState, Invalidate) but of no
// other line.
func (c *Cache) EachExclusive(f func(addr uint64)) {
	for wi, w := range c.excl.bits {
		for ; w != 0; w &= w - 1 {
			ways := c.set(uint64(64*wi + bits.TrailingZeros64(w)))
			for i := range ways {
				if ways[i].state == Exclusive {
					f(ways[i].tag << c.lineShift)
				}
			}
		}
	}
}

// DirtyCount reports how many lines are currently dirty.
func (c *Cache) DirtyCount() int { return c.count[Modified] }

// ValidCount reports how many lines are currently valid.
func (c *Cache) ValidCount() int { return len(c.lines) - c.count[Invalid] }

// Stats reports hit/miss/eviction/writeback counters.
func (c *Cache) Stats() (hits, misses, evictions, writebacks uint64) {
	return c.hits, c.misses, c.evictions, c.writebacks
}
