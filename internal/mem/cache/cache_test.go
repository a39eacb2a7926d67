package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/sim"
)

func l1() *Cache { return New(Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}) }
func l2() *Cache { return New(Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 8}) }

func TestConfigGeometry(t *testing.T) {
	if s := l1().Config().Sets(); s != 128 {
		t.Errorf("L1 sets = %d, want 128", s)
	}
	if s := l2().Config().Sets(); s != 128 {
		t.Errorf("L2 sets = %d, want 128", s)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 0, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 0},
		{SizeBytes: 16<<10 + 64, LineBytes: 64, Ways: 2},
		{SizeBytes: 24 << 10, LineBytes: 64, Ways: 2}, // 192 sets, not pow2
		{SizeBytes: 16 << 10, LineBytes: 48, Ways: 2},
		{SizeBytes: 8, LineBytes: 1, Ways: 8}, // no address bits free for state and age
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
	good := Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v", good, err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := l1()
	if _, hit := c.Lookup(0x1000); hit {
		t.Fatal("cold cache reported a hit")
	}
	c.Insert(0x1000, Shared)
	st, hit := c.Lookup(0x1000)
	if !hit || st != Shared {
		t.Fatalf("after insert: state=%v hit=%v", st, hit)
	}
	// Same line, different offset.
	if _, hit := c.Lookup(0x103F); !hit {
		t.Fatal("offset within same line missed")
	}
	if _, hit := c.Lookup(0x1040); hit {
		t.Fatal("adjacent line hit spuriously")
	}
}

func TestLRUEviction(t *testing.T) {
	c := l1() // 2-way, 128 sets, 64B lines: addresses 64*128 apart collide
	stride := uint64(64 * 128)
	a, b, d := uint64(0x0), stride, 2*stride
	c.Insert(a, Shared)
	c.Insert(b, Shared)
	c.Lookup(a) // touch a, making b LRU
	v, evicted := c.Insert(d, Shared)
	if !evicted {
		t.Fatal("third insert into 2-way set did not evict")
	}
	if v.Addr != b {
		t.Fatalf("evicted %#x, want LRU line %#x", v.Addr, b)
	}
	if _, hit := c.Peek(a); !hit {
		t.Fatal("recently used line was evicted")
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c := l1()
	stride := uint64(64 * 128)
	c.Insert(0, Modified)
	c.Insert(stride, Shared)
	v, evicted := c.Insert(2*stride, Shared)
	if !evicted || !v.Dirty || v.Addr != 0 {
		t.Fatalf("evicting Modified line: evicted=%v victim=%+v", evicted, v)
	}
	if d := c.DirtyCount(); d != 0 {
		t.Fatalf("dirty lines after evicting the only one = %d, want 0", d)
	}
}

func TestInsertExistingUpdatesState(t *testing.T) {
	c := l1()
	c.Insert(0x40, Shared)
	if _, evicted := c.Insert(0x40, Modified); evicted {
		t.Fatal("re-insert of present line evicted something")
	}
	st, _ := c.Peek(0x40)
	if st != Modified {
		t.Fatalf("state after upgrade-insert = %v, want M", st)
	}
	if c.ValidCount() != 1 {
		t.Fatalf("valid lines = %d, want 1", c.ValidCount())
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := l1()
	if c.SetState(0x80, Shared) {
		t.Fatal("SetState on absent line reported true")
	}
	c.Insert(0x80, Exclusive)
	if !c.SetState(0x80, Modified) {
		t.Fatal("SetState on present line reported false")
	}
	dirty, present := c.Invalidate(0x80)
	if !present || !dirty {
		t.Fatalf("Invalidate: present=%v dirty=%v, want true,true", present, dirty)
	}
	if _, present = c.Invalidate(0x80); present {
		t.Fatal("second Invalidate found the line")
	}
}

func TestFlushDirty(t *testing.T) {
	c := l2()
	c.Insert(0x000, Modified)
	c.Insert(0x040, Shared)
	c.Insert(0x080, Exclusive)
	c.Insert(0x0C0, Modified)
	flushed := c.FlushDirty(nil)
	if len(flushed) != 2 {
		t.Fatalf("flushed %d lines, want 2", len(flushed))
	}
	if c.DirtyCount() != 0 {
		t.Fatal("dirty lines remain after flush")
	}
	// Dirty lines are invalidated (compulsory miss later); clean survive.
	if _, hit := c.Peek(0x000); hit {
		t.Fatal("flushed dirty line still present")
	}
	if _, hit := c.Peek(0x040); !hit {
		t.Fatal("clean line was dropped by flush")
	}
	if _, hit := c.Peek(0x080); !hit {
		t.Fatal("exclusive clean line was dropped by flush")
	}
}

func TestLineAddr(t *testing.T) {
	c := l1()
	if got := c.LineAddr(0x12345); got != 0x12340 {
		t.Fatalf("LineAddr(0x12345) = %#x, want 0x12340", got)
	}
}

func TestLineStateHelpers(t *testing.T) {
	if !Modified.Dirty() || Shared.Dirty() || Exclusive.Dirty() || Invalid.Dirty() {
		t.Error("Dirty() wrong for some state")
	}
	if Invalid.Valid() || !Shared.Valid() {
		t.Error("Valid() wrong for some state")
	}
	if Modified.String() != "M" || Invalid.String() != "I" {
		t.Error("String() wrong")
	}
}

// Property: the cache never holds more valid lines than its capacity, and
// Lookup after Insert always hits, under arbitrary insert sequences.
func TestCapacityInvariantProperty(t *testing.T) {
	capacity := (16 << 10) / 64
	f := func(addrs []uint32) bool {
		c := l1()
		for _, a := range addrs {
			addr := uint64(a) << 6
			c.Insert(addr, Shared)
			if _, hit := c.Peek(addr); !hit {
				return false
			}
		}
		return c.ValidCount() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every dirty line inserted is accounted for exactly once, as
// either a dirty victim of a later insert or a line FlushDirty writes back.
func TestWritebackConservationProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := l1()
		inserted, evicted := 0, 0
		for _, a := range addrs {
			addr := uint64(a) << 6
			if st, ok := c.Peek(addr); ok && st == Modified {
				continue // already dirty; not a new dirty insertion
			}
			if v, ok := c.Insert(addr, Modified); ok && v.Dirty {
				evicted++
			}
			inserted++
		}
		flushed := len(c.FlushDirty(nil))
		return evicted+flushed == inserted && c.DirtyCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// scan recounts the ways by state and lists the Modified lines in set and
// way order, the reference the O(1) counts and FlushDirty must match.
func scan(c *Cache) (count [4]int, dirty []uint64) {
	for s := 0; s < c.cfg.Sets(); s++ {
		for _, w := range c.set(uint64(s)) {
			count[wayState(w)]++
			if wayState(w) == Modified {
				dirty = append(dirty, c.addr(uint64(s), w))
			}
		}
	}
	return count, dirty
}

// checkMarks compares m, the set bitmap of state st, with a scan of every
// set: a set's bit must be on exactly when one of its ways is in st.
func checkMarks(c *Cache, m []uint64, st LineState) error {
	for s := 0; s < c.cfg.Sets(); s++ {
		n := 0
		for _, w := range c.set(uint64(s)) {
			if wayState(w) == st {
				n++
			}
		}
		if bit := m[s/64]&(1<<(s%64)) != 0; bit != (n > 0) {
			return fmt.Errorf("set %d: %v bit %v, scan %d ways", s, st, bit, n)
		}
	}
	return nil
}

// checkAges asserts the LRU ranking invariant: in every set, the ages of
// the k valid ways are exactly 0..k-1.
func checkAges(c *Cache) error {
	for s := 0; s < c.cfg.Sets(); s++ {
		var seen uint64
		k := 0
		for _, w := range c.set(uint64(s)) {
			if wayState(w) != Invalid {
				seen |= 1 << ((w & c.ageMask) >> stateBits)
				k++
			}
		}
		if seen != 1<<k-1 {
			return fmt.Errorf("set %d: %d valid ways with ages %b", s, k, seen)
		}
	}
	return nil
}

// cacheOp is one random step: kind picks Insert, SetState, Invalidate or
// FlushDirty; line and state pick its operands.
type cacheOp struct{ Kind, Line, State uint8 }

// Property: under any sequence of Insert/SetState/Invalidate/FlushDirty on
// a small geometry (4 sets × 2 ways, 16 candidate lines), after every step
// the per-state counts and the per-set Modified and Exclusive bitmaps
// equal a full scan, each set's valid ways rank 0..k-1, DirtyCount is the
// number of Modified ways, FlushDirty returns exactly the Modified lines
// in set and way order, and EachExclusive visits exactly the Exclusive
// ones, also in set and way order.
func TestStateCountsMatchScanProperty(t *testing.T) {
	f := func(ops []cacheOp) bool {
		c := New(Config{SizeBytes: 512, LineBytes: 64, Ways: 2})
		for step, op := range ops {
			addr := uint64(op.Line%16) << 6
			state := LineState(op.State % 4)
			switch op.Kind % 4 {
			case 0:
				if state == Invalid {
					state = Shared
				}
				c.Insert(addr, state)
			case 1:
				c.SetState(addr, state)
			case 2:
				c.Invalidate(addr)
			case 3:
				_, want := scan(c)
				got := c.FlushDirty(nil)
				if len(got) != len(want) {
					t.Logf("step %d: FlushDirty returned %d lines, scan found %d", step, len(got), len(want))
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						t.Logf("step %d: FlushDirty[%d] = %#x, want %#x", step, i, got[i], want[i])
						return false
					}
				}
			}
			count, dirty := scan(c)
			if c.count != count {
				t.Logf("step %d: counts %v, scan %v", step, c.count, count)
				return false
			}
			if c.DirtyCount() != len(dirty) {
				t.Logf("step %d: DirtyCount %d, scan %d", step, c.DirtyCount(), len(dirty))
				return false
			}
			if c.ValidCount() != count[Shared]+count[Exclusive]+count[Modified] {
				t.Logf("step %d: ValidCount %d, scan %v", step, c.ValidCount(), count)
				return false
			}
			for _, err := range []error{checkMarks(c, c.dirty, Modified), checkMarks(c, c.excl, Exclusive), checkAges(c)} {
				if err != nil {
					t.Logf("step %d: %v", step, err)
					return false
				}
			}
			var excl, wantExcl []uint64
			c.EachExclusive(func(a uint64) { excl = append(excl, a) })
			for s := 0; s < c.cfg.Sets(); s++ {
				for _, w := range c.set(uint64(s)) {
					if wayState(w) == Exclusive {
						wantExcl = append(wantExcl, c.addr(uint64(s), w))
					}
				}
			}
			if fmt.Sprint(excl) != fmt.Sprint(wantExcl) {
				t.Logf("step %d: EachExclusive visited %#x, scan %#x", step, excl, wantExcl)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// EachExclusive lets the callback downgrade the line it is given, and
// still visits every Exclusive line exactly once, in set and way order.
func TestEachExclusiveDowngradeInPlace(t *testing.T) {
	c := l2()
	c.Insert(0x0C0, Exclusive)
	c.Insert(0x040, Exclusive)
	c.Insert(0x080, Shared)
	c.Insert(0x000, Modified)
	var seen []uint64
	c.EachExclusive(func(a uint64) {
		seen = append(seen, a)
		c.SetState(a, Shared)
	})
	if len(seen) != 2 || seen[0] != 0x040 || seen[1] != 0x0C0 {
		t.Fatalf("visited %#x, want [0x40 0xc0]", seen)
	}
	if c.count[Exclusive] != 0 || c.count[Shared] != 3 || c.DirtyCount() != 1 {
		t.Fatalf("counts after downgrade = %v", c.count)
	}
}

// refCache is the clock-LRU cache this package's packed ways replaced,
// kept as the reference model: every way carries its full line number,
// its state and the value of a per-cache clock at its last Lookup hit or
// Insert, and the victim is the valid way with the smallest stamp.
type refCache struct {
	cfg   Config
	lines []refLine // set s holds ways lines[s*Ways : (s+1)*Ways]
	clock uint64
}

type refLine struct {
	tag   uint64 // the full line number
	state LineState
	lru   uint64
}

func newRef(cfg Config) *refCache {
	return &refCache{cfg: cfg, lines: make([]refLine, cfg.Sets()*cfg.Ways)}
}

func (r *refCache) set(addr uint64) []refLine {
	s := int(addr/uint64(r.cfg.LineBytes)) & (r.cfg.Sets() - 1)
	return r.lines[s*r.cfg.Ways : (s+1)*r.cfg.Ways]
}

func (r *refCache) find(addr uint64) *refLine {
	tag := addr / uint64(r.cfg.LineBytes)
	ways := r.set(addr)
	for i := range ways {
		if ways[i].state.Valid() && ways[i].tag == tag {
			return &ways[i]
		}
	}
	return nil
}

func (r *refCache) Lookup(addr uint64) (LineState, bool) {
	if ln := r.find(addr); ln != nil {
		r.clock++
		ln.lru = r.clock
		return ln.state, true
	}
	return Invalid, false
}

func (r *refCache) Peek(addr uint64) (LineState, bool) {
	if ln := r.find(addr); ln != nil {
		return ln.state, true
	}
	return Invalid, false
}

func (r *refCache) Insert(addr uint64, st LineState) (Victim, bool) {
	r.clock++
	if ln := r.find(addr); ln != nil {
		ln.state, ln.lru = st, r.clock
		return Victim{}, false
	}
	ways := r.set(addr)
	idx := -1
	for i := range ways {
		if !ways[i].state.Valid() {
			idx = i
			break
		}
	}
	var v Victim
	evicted := idx < 0
	if evicted {
		idx = 0
		for i := 1; i < len(ways); i++ {
			if ways[i].lru < ways[idx].lru {
				idx = i
			}
		}
		v = Victim{Addr: ways[idx].tag * uint64(r.cfg.LineBytes), Dirty: ways[idx].state.Dirty()}
	}
	ways[idx] = refLine{tag: addr / uint64(r.cfg.LineBytes), state: st, lru: r.clock}
	return v, evicted
}

func (r *refCache) SetState(addr uint64, st LineState) bool {
	ln := r.find(addr)
	if ln != nil {
		ln.state = st
	}
	return ln != nil
}

func (r *refCache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	ln := r.find(addr)
	if ln == nil {
		return false, false
	}
	wasDirty, ln.state = ln.state.Dirty(), Invalid
	return wasDirty, true
}

func (r *refCache) FlushDirty(dst []uint64) []uint64 {
	for i := range r.lines {
		if ln := &r.lines[i]; ln.state == Modified {
			dst = append(dst, ln.tag*uint64(r.cfg.LineBytes))
			ln.state = Invalid
		}
	}
	return dst
}

func (r *refCache) EachExclusive(f func(addr uint64)) {
	for i := range r.lines {
		if ln := &r.lines[i]; ln.state == Exclusive {
			f(ln.tag * uint64(r.cfg.LineBytes))
		}
	}
}

// model is the method set the differential test drives on both caches.
type model interface {
	Lookup(uint64) (LineState, bool)
	Peek(uint64) (LineState, bool)
	Insert(uint64, LineState) (Victim, bool)
	SetState(uint64, LineState) bool
	Invalidate(uint64) (bool, bool)
	FlushDirty([]uint64) []uint64
	EachExclusive(func(uint64))
}

// diffAddrs is the address pool of a differential run on cfg: for a few
// sets, more lines than the set has ways, half of them private
// (dram.PrivateBit and an owner node in bits 48 and up, as
// Placement.PrivateAddr makes them) and some with every high address bit
// set, each at a random offset within its line.
func diffAddrs(cfg Config, rng *sim.RNG) []uint64 {
	sets := uint64(cfg.Sets())
	highs := []uint64{0, dram.PrivateBit, dram.PrivateBit | 5<<48, dram.PrivateBit | 1023<<48, ^uint64(1<<47 - 1)}
	var pool []uint64
	for _, s := range []uint64{0, 1, sets - 1} {
		for tag := uint64(0); tag < uint64(cfg.Ways)+3; tag++ {
			high := highs[rng.Intn(len(highs))]
			line := (tag*sets + s) * uint64(cfg.LineBytes)
			pool = append(pool, high|line|uint64(rng.Intn(cfg.LineBytes)))
		}
	}
	return pool
}

// The packed-way cache behaves exactly like the clock-LRU reference under
// seeded random Lookup/Insert/SetState/Invalidate/FlushDirty/EachExclusive
// sequences on the paper's L1 and L2 geometries and the small one the
// properties above use: every hit and state, every victim, and the order
// of every FlushDirty and EachExclusive listing match. EachExclusive's
// callback downgrades or drops some lines as it goes, as the coherence
// protocol's sleep flush does.
func TestMatchesClockLRUReference(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2},
		{SizeBytes: 64 << 10, LineBytes: 64, Ways: 8},
		{SizeBytes: 512, LineBytes: 64, Ways: 2},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := sim.NewRNG(seed)
			c, r := New(cfg), newRef(cfg)
			pool := diffAddrs(cfg, rng)
			evictions, flushed, excl := 0, 0, 0
			for step := 0; step < 20000; step++ {
				addr := pool[rng.Intn(len(pool))]
				st := LineState(1 + rng.Intn(3))
				fail := func(what string, got, want any) {
					t.Fatalf("%+v seed %d step %d: %s(%#x) = %v, reference %v", cfg, seed, step, what, addr, got, want)
				}
				switch k := rng.Intn(16); {
				case k < 5:
					gs, gh := c.Lookup(addr)
					ws, wh := r.Lookup(addr)
					if gs != ws || gh != wh {
						fail("Lookup", []any{gs, gh}, []any{ws, wh})
					}
				case k < 10:
					gv, ge := c.Insert(addr, st)
					wv, we := r.Insert(addr, st)
					if gv != wv || ge != we {
						fail("Insert", []any{gv, ge}, []any{wv, we})
					}
					if ge {
						evictions++
					}
				case k < 12:
					if got, want := c.SetState(addr, st), r.SetState(addr, st); got != want {
						fail("SetState", got, want)
					}
				case k < 14:
					gd, gp := c.Invalidate(addr)
					wd, wp := r.Invalidate(addr)
					if gd != wd || gp != wp {
						fail("Invalidate", []any{gd, gp}, []any{wd, wp})
					}
				case k < 15 && rng.Intn(8) == 0:
					got, want := c.FlushDirty(nil), r.FlushDirty(nil)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						fail("FlushDirty", got, want)
					}
					flushed += len(got)
				default:
					// The same i-th visit gets the same action on both.
					salt := rng.Uint64()
					visit := func(m model, seen *[]uint64) func(uint64) {
						return func(a uint64) {
							*seen = append(*seen, a)
							switch (salt >> (2 * (len(*seen) % 32))) % 4 {
							case 0:
								m.SetState(a, Shared)
							case 1:
								m.Invalidate(a)
							}
						}
					}
					var got, want []uint64
					c.EachExclusive(visit(c, &got))
					r.EachExclusive(visit(r, &want))
					if fmt.Sprint(got) != fmt.Sprint(want) {
						fail("EachExclusive", got, want)
					}
					excl += len(got)
				}
				if step%64 == 0 {
					n := 0
					for _, a := range pool {
						gs, gh := c.Peek(a)
						ws, wh := r.Peek(a)
						if gs != ws || gh != wh {
							t.Fatalf("%+v seed %d step %d: Peek(%#x) = %v,%v, reference %v,%v", cfg, seed, step, a, gs, gh, ws, wh)
						}
						if wh {
							n++
						}
					}
					if c.ValidCount() != n {
						t.Fatalf("%+v seed %d step %d: ValidCount %d, reference holds %d", cfg, seed, step, c.ValidCount(), n)
					}
					if err := checkAges(c); err != nil {
						t.Fatalf("%+v seed %d step %d: %v", cfg, seed, step, err)
					}
				}
			}
			if evictions == 0 || flushed == 0 || excl == 0 {
				t.Fatalf("%+v seed %d: run missed a path: %d evictions, %d flushed, %d exclusive visits", cfg, seed, evictions, flushed, excl)
			}
		}
	}
}
