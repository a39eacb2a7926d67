package coherence

import (
	"testing"
	"unsafe"

	"thriftybarrier/internal/sim"
)

// checkIndex asserts the linear-probing invariant: every line sits in its
// home bucket or after it with no empty bucket in between, and n counts
// the occupied buckets. It reports how many lines sit before their home,
// i.e. on a probe run that wrapped past the end of the table.
func checkIndex(t *testing.T, x *lineIndex) (wrapped int) {
	t.Helper()
	mask := len(x.buckets) - 1
	n := 0
	for i, b := range x.buckets {
		if b.slot == 0 {
			continue
		}
		n++
		h := x.home(b.line)
		for j := h; j != i; j = (j + 1) & mask {
			if x.buckets[j].slot == 0 {
				t.Fatalf("line %#x at bucket %d, home %d: empty bucket %d between", b.line, i, h, j)
			}
		}
		if i < h {
			wrapped++
		}
	}
	if n != x.n {
		t.Fatalf("n = %d, %d buckets occupied", x.n, n)
	}
	return wrapped
}

// The open-addressed line index behaves like a Go map under random
// inserts, lookups and deletes. The key space (48 lines) is near the
// 64-bucket table's half-full bound, so probe runs are long and some wrap
// past the table's end; deletes inside those runs exercise the backward
// shift across the wrap.
func TestLineIndexMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		var x lineIndex
		ref := map[uint64]int32{}
		wrappedDeletes := 0
		for step := 0; step < 20000; step++ {
			line := uint64(rng.Intn(48)) << 6
			want, present := ref[line]
			switch r := rng.Intn(3); {
			case r == 0 && !present && len(ref) < 32:
				slot := int32(rng.Intn(1 << 20))
				x.put(line, slot)
				ref[line] = slot
			case r == 1:
				wrapped := checkIndex(t, &x)
				got, ok := x.del(line)
				if ok != present || (ok && got != want) {
					t.Fatalf("seed %d step %d: del(%#x) = %d,%v, map has %d,%v", seed, step, line, got, ok, want, present)
				}
				if ok && wrapped > 0 {
					wrappedDeletes++
				}
				delete(ref, line)
			default:
				got, ok := x.get(line)
				if ok != present || (ok && got != want) {
					t.Fatalf("seed %d step %d: get(%#x) = %d,%v, map has %d,%v", seed, step, line, got, ok, want, present)
				}
			}
			checkIndex(t, &x)
			if x.n != len(ref) {
				t.Fatalf("seed %d step %d: index holds %d lines, map %d", seed, step, x.n, len(ref))
			}
		}
		for line, want := range ref {
			if got, ok := x.get(line); !ok || got != want {
				t.Fatalf("seed %d: final get(%#x) = %d,%v, want %d", seed, line, got, ok, want)
			}
		}
		if wrappedDeletes == 0 {
			t.Fatalf("seed %d: no delete ran while a probe run wrapped the table", seed)
		}
	}
}

// The directory reuses freed slab slots and grows its index past the
// initial size without losing entries, in a region of at most 64 nodes
// and in one whose sharer sets spill into the side slab.
func TestDirectorySlabReuse(t *testing.T) {
	for _, nodes := range []int{64, 1024} {
		d := newDirectory(nodes)
		for i := uint64(0); i < 1000; i++ {
			e := d.entry(i << 6)
			e.state = dirExclusive
			e.owner = int32(i % 8)
			e.sharers.add(int(i) % nodes)
		}
		for i := uint64(0); i < 1000; i += 2 {
			d.remove(i << 6)
		}
		for i := uint64(0); i < 1000; i++ {
			e, ok := d.lookup(i << 6)
			if ok != (i%2 == 1) {
				t.Fatalf("%d nodes, line %#x: present %v after removing even lines", nodes, i<<6, ok)
			}
			if ok && (e.state != dirExclusive || e.owner != int32(i%8) || !e.sharers.has(int(i)%nodes)) {
				t.Fatalf("%d nodes, line %#x: entry %+v", nodes, i<<6, *e.dirEntry)
			}
		}
		for i := uint64(2000); i < 2500; i++ {
			if e := d.entry(i << 6); e.state != dirUncached || e.owner != 0 || !e.sharers.empty() {
				t.Fatalf("%d nodes: reused slot not reset: %+v", nodes, *e.dirEntry)
			}
		}
		if len(d.slab) != 1000 || len(d.ext) != 1000*d.extWords {
			t.Fatalf("%d nodes: slabs grew to %d slots and %d words, want the 1000 freed slots reused", nodes, len(d.slab), len(d.ext))
		}
	}
}

// An entry is 16 bytes, and a region of at most 64 nodes keeps no side
// slab of sharer words.
func TestDirEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(dirEntry{}); n > 16 {
		t.Fatalf("dirEntry is %d bytes, want at most 16", n)
	}
	d := newDirectory(64)
	d.entry(0).sharers.add(63)
	if d.extWords != 0 || d.ext != nil {
		t.Fatalf("64-node directory keeps %d side words per entry", d.extWords)
	}
}
