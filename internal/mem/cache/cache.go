// Package cache implements the set-associative write-back cache model used
// for both levels of the per-node cache hierarchy (L1 16 kB 2-way, L2 64 kB
// 8-way, 64-byte lines — Table 1 of the paper). Line coherence states are
// kept here so that the directory protocol package can import this one
// without a cycle.
//
// A way is one 64-bit word: the MESI state in bits 0–1, the way's LRU
// age among its set's valid ways above them (0 is the most recently
// used), and the tag in the bits left over. An all-zero word is an empty
// way, so a fresh array of words is a set of empty caches that no set-up
// pass has to touch. NewSlab builds any number of caches over one such
// array, so a machine's caches cost a fixed number of allocations
// whatever its node count.
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

// Validate reports a descriptive error for impossible geometries,
// including any whose way word cannot hold the full tag of every 64-bit
// address next to the state and the LRU age.
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
	// The tag is the address above the line offset and the set index;
	// the bits those two free must hold the state and the age.
	if freed, need := log2(c.LineBytes)+log2(c.Sets()), stateBits+ageBits(c.Ways); freed < need {
		return fmt.Errorf("cache: %d-byte lines in %d sets free %d address bits, %d ways need %d for state and LRU age", c.LineBytes, c.Sets(), freed, c.Ways, need)
	}
	return nil
}

// log2 returns the base-2 logarithm of n, a power of two.
func log2(n int) uint { return uint(bits.TrailingZeros(uint(n))) }

// ageBits is the width of a way's LRU age in a set of the given ways.
func ageBits(ways int) uint { return uint(bits.Len(uint(ways - 1))) }

// stateBits is the width of a way's MESI state, the word's low bits.
const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
)

// Victim describes a line displaced by Insert or Flush.
type Victim struct {
	Addr  uint64 // line-aligned address of the displaced line
	Dirty bool   // true if the displaced line required writeback
}

// Cache is a single-level set-associative write-back cache. It tracks tags
// and coherence states only — the simulator never stores data contents.
// The zero value is unusable; construct with New or NewSlab.
//
// Replacement is exact LRU. The ages of a set's k valid ways are 0..k-1,
// ordered by when each was last Lookup-hit or Inserted; an invalid way's
// age means nothing, so an all-zero set is a valid empty one. A hit or an
// Insert moves its way to age 0 and ages the valid ways younger than it
// by one; a way that becomes invalid leaves, and the ways older than it
// move up by one. SetState between valid states and Peek leave the ages
// alone. A fill takes the lowest-index invalid way, and a full set evicts
// its way of age Ways-1: the one least recently hit or filled.
type Cache struct {
	cfg Config
	// ways holds set s's ways at ways[s*Ways : (s+1)*Ways].
	ways      []uint64
	setMask   uint64
	lineShift uint // log2(LineBytes)
	setShift  uint // log2(Sets)
	tagShift  uint // stateBits + ageBits: where the tag starts in a way
	ageMask   uint64
	// count holds the number of ways in each LineState, so the dirty and
	// exclusive populations are known without a scan. count[Invalid]
	// includes never-filled ways.
	count [4]int
	// dirty and excl mark, one bit per set, the sets holding a Modified
	// or an Exclusive way, so FlushDirty and EachExclusive visit only
	// those sets.
	dirty, excl []uint64
}

// New builds a cache from cfg, panicking on invalid geometry (geometries
// are static configuration; an invalid one is a programming error).
func New(cfg Config) *Cache { return &NewSlab(1, cfg)[0] }

// NewSlab builds n caches of each geometry in cfgs, in that order: caches
// k*n through k*n+n-1 have geometry cfgs[k]. All of them share one array
// of ways and one of set marks. It panics on invalid geometry, like New.
func NewSlab(n int, cfgs ...Config) []Cache {
	ways, words := 0, 0
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			panic(err)
		}
		ways += n * cfg.Sets() * cfg.Ways
		words += n * 2 * markWords(cfg)
	}
	caches := make([]Cache, 0, n*len(cfgs))
	slab, marks := make([]uint64, ways), make([]uint64, words)
	for _, cfg := range cfgs {
		size, mw := cfg.Sets()*cfg.Ways, markWords(cfg)
		ab := ageBits(cfg.Ways)
		for i := 0; i < n; i++ {
			c := Cache{
				cfg:       cfg,
				ways:      slab[:size:size],
				setMask:   uint64(cfg.Sets() - 1),
				lineShift: log2(cfg.LineBytes),
				setShift:  log2(cfg.Sets()),
				tagShift:  stateBits + ab,
				ageMask:   (1<<ab - 1) << stateBits,
				dirty:     marks[:mw:mw],
				excl:      marks[mw : 2*mw : 2*mw],
			}
			c.count[Invalid] = size
			caches = append(caches, c)
			slab, marks = slab[size:], marks[2*mw:]
		}
	}
	return caches
}

// markWords is the length of one per-set bitmap of cfg's sets.
func markWords(cfg Config) int { return (cfg.Sets() + 63) / 64 }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// set returns the ways of set s.
func (c *Cache) set(s uint64) []uint64 {
	i := int(s) * c.cfg.Ways
	return c.ways[i : i+c.cfg.Ways : i+c.cfg.Ways]
}

// index splits addr into its set and its tag.
func (c *Cache) index(addr uint64) (set, tag uint64) {
	l := addr >> c.lineShift
	return l & c.setMask, l >> c.setShift
}

// find returns the index of the valid way of ways holding tag, or -1.
func (c *Cache) find(ways []uint64, tag uint64) int {
	for i, w := range ways {
		if w>>c.tagShift == tag && w&stateMask != uint64(Invalid) {
			return i
		}
	}
	return -1
}

// addr returns the line address of way w of set.
func (c *Cache) addr(set, w uint64) uint64 {
	return (w>>c.tagShift<<c.setShift | set) << c.lineShift
}

// wayState returns way w's state.
func wayState(w uint64) LineState { return LineState(w & stateMask) }

// touch makes valid way i of ways the most recently used.
func (c *Cache) touch(ways []uint64, i int) {
	if age := ways[i] & c.ageMask; age != 0 {
		c.promote(ways, i, age)
	}
}

// promote gives way i age 0 and ages by one every other valid way whose
// age is below limit: the ways younger than i when i is valid, every
// valid way (limit beyond any age) when i is about to be filled.
func (c *Cache) promote(ways []uint64, i int, limit uint64) {
	for j, w := range ways {
		if w&stateMask != uint64(Invalid) && w&c.ageMask < limit {
			ways[j] = w + 1<<stateBits
		}
	}
	ways[i] &^= c.ageMask
}

// setState moves way i of set, whose ways are ways, to st, keeping the
// per-state counts and the set marks.
func (c *Cache) setState(set uint64, ways []uint64, i int, st LineState) {
	old := wayState(ways[i])
	if old == st {
		return
	}
	c.count[old]--
	c.count[st]++
	if st == Invalid {
		// Way i leaves the ranking; the ways older than it move up.
		age := ways[i] & c.ageMask
		for j, w := range ways {
			if w&stateMask != uint64(Invalid) && w&c.ageMask > age {
				ways[j] = w - 1<<stateBits
			}
		}
	}
	ways[i] = ways[i]&^stateMask | uint64(st)
	if old == Modified || st == Modified {
		mark(c.dirty, set, holds(ways, Modified))
	}
	if old == Exclusive || st == Exclusive {
		mark(c.excl, set, holds(ways, Exclusive))
	}
}

// holds reports whether any of ways is in state st.
func holds(ways []uint64, st LineState) bool {
	for _, w := range ways {
		if wayState(w) == st {
			return true
		}
	}
	return false
}

// mark sets or clears set's bit in the bitmap m.
func mark(m []uint64, set uint64, on bool) {
	if on {
		m[set/64] |= 1 << (set % 64)
	} else {
		m[set/64] &^= 1 << (set % 64)
	}
}

// Lookup probes the cache. On a hit it refreshes LRU and returns the line's
// state; on a miss it returns Invalid.
func (c *Cache) Lookup(addr uint64) (LineState, bool) {
	set, tag := c.index(addr)
	ways := c.set(set)
	if i := c.find(ways, tag); i >= 0 {
		c.touch(ways, i)
		return wayState(ways[i]), true
	}
	return Invalid, false
}

// Peek probes without updating LRU.
func (c *Cache) Peek(addr uint64) (LineState, bool) {
	set, tag := c.index(addr)
	ways := c.set(set)
	if i := c.find(ways, tag); i >= 0 {
		return wayState(ways[i]), true
	}
	return Invalid, false
}

// Insert fills addr's line with the given state, evicting the LRU way if
// the set is full. It returns the victim, if any. Inserting a line that is
// already present just updates its state.
func (c *Cache) Insert(addr uint64, st LineState) (Victim, bool) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	set, tag := c.index(addr)
	ways := c.set(set)
	// Already present: update in place.
	if i := c.find(ways, tag); i >= 0 {
		c.setState(set, ways, i, st)
		c.touch(ways, i)
		return Victim{}, false
	}
	// Prefer the lowest-index invalid way, else evict the oldest.
	fill, oldest := -1, 0
	for i, w := range ways {
		if wayState(w) == Invalid {
			fill = i
			break
		}
		if w&c.ageMask > ways[oldest]&c.ageMask {
			oldest = i
		}
	}
	var victim Victim
	evicted := fill < 0
	if evicted {
		fill = oldest
		w := ways[fill]
		victim = Victim{Addr: c.addr(set, w), Dirty: wayState(w).Dirty()}
		c.touch(ways, fill)
	} else {
		c.promote(ways, fill, ^uint64(0))
	}
	c.setState(set, ways, fill, st)
	ways[fill] = tag<<c.tagShift | ways[fill]&(c.ageMask|stateMask)
	return victim, evicted
}

// SetState updates the coherence state of a present line. It reports false
// if the line is absent.
func (c *Cache) SetState(addr uint64, st LineState) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	i := c.find(ways, tag)
	if i < 0 {
		return false
	}
	c.setState(set, ways, i, st)
	return true
}

// Invalidate drops the line if present, reporting whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	set, tag := c.index(addr)
	ways := c.set(set)
	i := c.find(ways, tag)
	if i < 0 {
		return false, false
	}
	wasDirty = wayState(ways[i]).Dirty()
	c.setState(set, ways, i, Invalid)
	return wasDirty, true
}

// FlushDirty writes back and invalidates every dirty line, appending their
// line addresses to dst and returning the extended slice. This models the
// flush a processor performs before entering a deep sleep state whose
// cache cannot respond to protocol interventions (§3.1): the data must
// reach a safe place, and subsequent accesses become compulsory misses.
// Lines come in set and way order, and only the sets holding a dirty line
// are visited.
func (c *Cache) FlushDirty(dst []uint64) []uint64 {
	for wi, m := range c.dirty {
		for ; m != 0; m &= m - 1 {
			set := uint64(64*wi + bits.TrailingZeros64(m))
			ways := c.set(set)
			for i, w := range ways {
				if wayState(w) == Modified {
					dst = append(dst, c.addr(set, w))
					c.setState(set, ways, i, Invalid)
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
	for wi, m := range c.excl {
		for ; m != 0; m &= m - 1 {
			set := uint64(64*wi + bits.TrailingZeros64(m))
			ways := c.set(set)
			for i := range ways {
				if w := ways[i]; wayState(w) == Exclusive {
					f(c.addr(set, w))
				}
			}
		}
	}
}

// DirtyCount reports how many lines are currently dirty.
func (c *Cache) DirtyCount() int { return c.count[Modified] }

// ValidCount reports how many lines are currently valid.
func (c *Cache) ValidCount() int { return len(c.ways) - c.count[Invalid] }
