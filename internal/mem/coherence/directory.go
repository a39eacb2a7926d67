package coherence

import "math/bits"

// directory holds the protocol's entries by value in a slab: a []dirEntry
// with a free list of slots, found through an open-addressed line→slot
// index. Entries are neither allocated nor freed one by one, so the
// directory costs no garbage once the slab has grown to the run's working
// set. Nothing iterates the directory, so its layout cannot reach results.
//
// An entry keeps the sharer bits of nodes 0..63 itself. In a region of
// more than 64 nodes the rest live in ext, a side slab of extWords words
// per slot, so the common entry stays 16 bytes.
//
// A dirLine from lookup or entry stays valid until the next entry call
// (which may grow the slabs) or until its own line is removed.
type directory struct {
	slab     []dirEntry
	ext      []uint64
	extWords int
	free     []int32
	index    lineIndex
}

// newDirectory returns an empty directory for a region of nodes nodes.
func newDirectory(nodes int) directory {
	return directory{extWords: (nodes - 1) / 64}
}

// dirLine is one line's entry together with its whole sharer set.
type dirLine struct {
	*dirEntry
	sharers sharerSet
}

// at returns the entry in slot.
func (d *directory) at(slot int32) dirLine {
	e := &d.slab[slot]
	i := int(slot) * d.extWords
	return dirLine{e, sharerSet{word: &e.word, ext: d.ext[i : i+d.extWords : i+d.extWords]}}
}

// lookup returns line's entry, reporting false when the line is uncached.
func (d *directory) lookup(line uint64) (dirLine, bool) {
	if slot, ok := d.index.get(line); ok {
		return d.at(slot), true
	}
	return dirLine{}, false
}

// entry returns line's entry, adding an uncached one when it has none.
func (d *directory) entry(line uint64) dirLine {
	if slot, ok := d.index.get(line); ok {
		return d.at(slot)
	}
	var slot int32
	if n := len(d.free); n > 0 {
		slot = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		d.slab = append(d.slab, dirEntry{})
		for i := 0; i < d.extWords; i++ {
			d.ext = append(d.ext, 0)
		}
		slot = int32(len(d.slab) - 1)
	}
	d.index.put(line, slot)
	e := d.at(slot)
	*e.dirEntry = dirEntry{state: dirUncached}
	e.sharers.clear()
	return e
}

// remove drops line's entry, returning the line to uncached.
func (d *directory) remove(line uint64) {
	if slot, ok := d.index.del(line); ok {
		d.free = append(d.free, slot)
	}
}

// lineIndex maps line addresses to slab slots: an open-addressed table
// with linear probing, kept at most half full, that deletes by shifting
// the rest of a probe run back instead of leaving tombstones.
type lineIndex struct {
	buckets []lineBucket // length a power of two
	shift   uint         // 64 - log2(len(buckets))
	n       int
}

// lineBucket is one index bucket. slot holds the slab slot plus one, so
// the zero bucket is empty.
type lineBucket struct {
	line uint64
	slot int32
}

// minIndexBuckets is the index's initial size.
const minIndexBuckets = 64

// home is line's preferred bucket: Fibonacci hashing, whose top bits mix
// every bit of the line-aligned address.
func (x *lineIndex) home(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> x.shift)
}

// find returns the bucket holding line.
func (x *lineIndex) find(line uint64) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := len(x.buckets) - 1
	for i := x.home(line); ; i = (i + 1) & mask {
		b := &x.buckets[i]
		if b.slot == 0 {
			return 0, false
		}
		if b.line == line {
			return i, true
		}
	}
}

func (x *lineIndex) get(line uint64) (int32, bool) {
	i, ok := x.find(line)
	if !ok {
		return 0, false
	}
	return x.buckets[i].slot - 1, true
}

// put adds line, which must be absent, at slot.
func (x *lineIndex) put(line uint64, slot int32) {
	if 2*(x.n+1) > len(x.buckets) {
		x.grow()
	}
	mask := len(x.buckets) - 1
	i := x.home(line)
	for x.buckets[i].slot != 0 {
		i = (i + 1) & mask
	}
	x.buckets[i] = lineBucket{line: line, slot: slot + 1}
	x.n++
}

// del removes line and returns its slot. The buckets after it in the
// probe run shift back over the hole, each one only when the hole lies
// between its home and its position (cyclically), so every remaining
// line stays reachable from its home without gaps.
func (x *lineIndex) del(line uint64) (int32, bool) {
	i, ok := x.find(line)
	if !ok {
		return 0, false
	}
	mask := len(x.buckets) - 1
	slot := x.buckets[i].slot - 1
	for j := (i + 1) & mask; x.buckets[j].slot != 0; j = (j + 1) & mask {
		if (j-x.home(x.buckets[j].line))&mask >= (j-i)&mask {
			x.buckets[i] = x.buckets[j]
			i = j
		}
	}
	x.buckets[i] = lineBucket{}
	x.n--
	return slot, true
}

func (x *lineIndex) grow() {
	old := x.buckets
	size := 2 * len(old)
	if size < minIndexBuckets {
		size = minIndexBuckets
	}
	x.buckets = make([]lineBucket, size)
	x.shift = uint(64 - bits.Len(uint(size-1)))
	x.n = 0
	for _, b := range old {
		if b.slot != 0 {
			x.put(b.line, b.slot-1)
		}
	}
}
