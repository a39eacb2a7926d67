package cache

import (
	"fmt"
	"testing"
	"testing/quick"
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
	if !evicted || !v.Dirty {
		t.Fatalf("evicting Modified line: evicted=%v dirty=%v", evicted, v.Dirty)
	}
	_, _, _, wb := c.Stats()
	if wb != 1 {
		t.Fatalf("writebacks = %d, want 1", wb)
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

// Property: every dirty line inserted is eventually accounted for as either
// still-dirty, written back on eviction, or flushed.
func TestWritebackConservationProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := l1()
		inserted := 0
		for _, a := range addrs {
			addr := uint64(a) << 6
			if st, ok := c.Peek(addr); ok && st == Modified {
				continue // already dirty; not a new dirty insertion
			}
			c.Insert(addr, Modified)
			inserted++
		}
		flushed := len(c.FlushDirty(nil))
		_, _, _, wb := c.Stats()
		// writebacks counts evictions of dirty lines plus flushes.
		return int(wb) == inserted && flushed+int(wb)-flushed <= inserted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// scan recounts the ways by state and lists the Modified lines in set and
// way order, the reference the O(1) counts and FlushDirty must match.
func scan(c *Cache) (count [4]int, dirty []uint64) {
	for s := 0; s < c.cfg.Sets(); s++ {
		for _, ln := range c.set(uint64(s)) {
			count[ln.state]++
			if ln.state == Modified {
				dirty = append(dirty, ln.tag<<c.lineShift)
			}
		}
	}
	return count, dirty
}

// checkSetIndex compares x, the per-set index of state st, with a scan of
// every set: each set's count and its bit must match the ways in st.
func checkSetIndex(c *Cache, x *setIndex, st LineState) error {
	for s := 0; s < c.cfg.Sets(); s++ {
		n := int32(0)
		for _, ln := range c.set(uint64(s)) {
			if ln.state == st {
				n++
			}
		}
		bit := x.bits[s/64]&(1<<(s%64)) != 0
		if x.n[s] != n || bit != (n > 0) {
			return fmt.Errorf("set %d: %v count %d bit %v, scan %d", s, st, x.n[s], bit, n)
		}
	}
	return nil
}

// cacheOp is one random step: kind picks Insert, SetState, Invalidate or
// FlushDirty; line and state pick its operands.
type cacheOp struct{ Kind, Line, State uint8 }

// Property: under any sequence of Insert/SetState/Invalidate/FlushDirty on
// a small geometry (4 sets × 2 ways, 16 candidate lines), the per-state
// counts and the per-set Modified and Exclusive counts and bitmaps equal a
// full scan after every step, DirtyCount is the number of Modified ways,
// FlushDirty returns exactly the Modified lines in set and way order, and
// EachExclusive visits exactly the Exclusive ones, also in set and way
// order.
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
			for _, err := range []error{checkSetIndex(c, &c.dirty, Modified), checkSetIndex(c, &c.excl, Exclusive)} {
				if err != nil {
					t.Logf("step %d: %v", step, err)
					return false
				}
			}
			var excl, wantExcl []uint64
			c.EachExclusive(func(a uint64) { excl = append(excl, a) })
			for s := 0; s < c.cfg.Sets(); s++ {
				for _, ln := range c.set(uint64(s)) {
					if ln.state == Exclusive {
						wantExcl = append(wantExcl, ln.tag<<c.lineShift)
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
