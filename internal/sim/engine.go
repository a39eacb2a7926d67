package sim

import "fmt"

// Handle refers to a scheduled event. It is a small value (copyable, unlike
// the old *Event) encoding the event's arena slot and a generation tag: the
// tag makes a stale handle — one whose event already fired or was cancelled,
// and whose slot has since been reused — harmlessly invalid instead of
// aliasing the new occupant (no ABA). The zero Handle refers to nothing;
// cancelling it is a no-op.
type Handle struct {
	ref uint64 // (slot+1)<<32 | generation
}

// valid handles encode slot+1 so the zero Handle never matches slot 0.
func makeHandle(slot int32, gen uint32) Handle {
	return Handle{uint64(slot+1)<<32 | uint64(gen)}
}

// Msg is an event's payload: a kind its Handler switches on plus a few
// operands. It is a plain value, so scheduling one allocates nothing;
// what the fields mean is up to the Handler that receives them.
type Msg struct {
	Kind, Flags    uint8
	A, B, C, D     int32
	T0, T1, T2, T3 Cycles
}

// Handler receives the events scheduled for it. Every event is a
// (Handler, Msg) pair; a model that sends many kinds of message
// implements Handler once and dispatches on Msg.Kind.
type Handler interface {
	Fire(Msg)
}

// callback adapts the func of At, After and AtOrdered to Handler,
// ignoring the Msg. A func value converts to an interface without
// allocating, so those forms allocate no more than AtMsg does: nothing.
type callback func()

func (f callback) Fire(Msg) { f() }

// event is one arena slot: the payload of a pending event. Its ordering
// key lives inline in the heap. Slots are recycled through the free-list;
// gen counts recycles so stale Handles can be rejected in O(1).
type event struct {
	h   Handler
	msg Msg
	gen uint32
	pos int32 // index in the heap; -1 once fired or cancelled
}

// heapEntry is one heap element: the event's (when, order, seq) key and
// its arena slot. Keeping the key inline lets comparisons read the heap
// alone.
type heapEntry struct {
	when  Cycles
	order uint64
	seq   uint64
	slot  int32
}

// Engine is a deterministic discrete-event simulator. Events fire in
// (time, order, sequence) order; the order key is 0 for the sequential API
// (At, After) and sequence is assigned at scheduling time, so two events
// scheduled for the same cycle fire in the order they were scheduled —
// exactly the historical (time, sequence) behaviour. This makes runs
// bit-reproducible, which the tests and the calibration harness rely on.
// Model-supplied order keys (AtOrdered) exist for the parallel engine,
// whose cross-shard determinism needs a tie-break that does not depend on
// message delivery timing.
//
// The queue is a 4-ary min-heap of (when, order, seq, slot) entries over a
// flat event arena with a free-list: scheduling and firing are
// allocation-free in steady state (once the arena and heap slices have
// grown to the high-water mark). The 4-ary layout halves the tree depth of
// a binary heap, and the inline keys let a comparison read the heap alone;
// the arena holds only each event's Handler, Msg, generation and heap
// position.
//
// The zero value is not ready to use; construct one with NewEngine. An
// Engine must not be copied: the copy would share the arena and heap
// backing arrays with the original while maintaining divergent length and
// free-list bookkeeping.
type Engine struct {
	now     Cycles
	seq     uint64
	events  []event     // arena; Handles and the heap index into it
	free    []int32     // recycled arena slots
	heap    []heapEntry // 4-ary min-heap ordered by (when, order, seq)
	stopped bool
	fired   uint64
	retired uint64 // slots permanently withdrawn after generation wrap
}

// MaxArenaSlots is the hard capacity of the event arena. Slots are indexed
// by int32 in the heap and in the Handle encoding (slot+1 in the high
// word), so an Engine can hold at most this many simultaneously pending
// events; one more schedule panics loudly instead of wrapping the index
// and silently corrupting the heap.
const MaxArenaSlots = 1<<31 - 2

// maxArenaSlots is MaxArenaSlots, lowered by boundary tests that cannot
// afford to allocate 2^31 real events.
var maxArenaSlots = MaxArenaSlots

// NewEngine returns an engine with the clock at cycle zero and an empty
// event queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time.
func (e *Engine) Now() Cycles { return e.now }

// Fired reports the number of events dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return len(e.heap) }

// At schedules fn to run at absolute cycle when. Scheduling in the past
// panics: the simulator has no mechanism for retroactive causality, so such
// a call is always a modeling bug.
func (e *Engine) At(when Cycles, fn func()) Handle {
	return e.AtMsg(when, 0, callback(fn), Msg{})
}

// AtOrdered schedules fn at absolute cycle when with an explicit order
// key; it is AtMsg for a callback.
func (e *Engine) AtOrdered(when Cycles, order uint64, fn func()) Handle {
	return e.AtMsg(when, order, callback(fn), Msg{})
}

// AtMsg schedules h.Fire(msg) at absolute cycle when with an explicit
// order key: events fire in (when, order, seq) order. The sequential API
// (At, After) passes order 0, so its same-cycle ties still resolve by
// scheduling sequence. The parallel engine's models pass unique order
// keys, making the firing order — and therefore the whole run —
// independent of when a cross-shard message happened to be merged into
// the destination queue.
//
// It panics, with the limit in the message, when the arena is full
// (MaxArenaSlots pending events) or the scheduling sequence counter is
// exhausted: both are unrecoverable capacity overflows that previously
// wrapped silently and corrupted the firing order.
func (e *Engine) AtMsg(when Cycles, order uint64, h Handler, msg Msg) Handle {
	if when < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %d, before now %d", when, e.now))
	}
	if e.seq == ^uint64(0) {
		panic("sim: event sequence counter exhausted (2^64-1 events scheduled on one Engine)")
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if len(e.events) >= maxArenaSlots {
			panic(fmt.Sprintf("sim: event arena full (%d pending events; limit %d slots)",
				len(e.heap), maxArenaSlots))
		}
		e.events = append(e.events, event{})
		slot = int32(len(e.events) - 1)
	}
	ev := &e.events[slot]
	ev.h, ev.msg = h, msg
	e.heap = append(e.heap, heapEntry{when: when, order: order, seq: e.seq, slot: slot})
	e.seq++
	e.siftUp(len(e.heap) - 1)
	return makeHandle(slot, ev.gen)
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycles, fn func()) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return e.At(e.now+delay, fn)
}

// When reports the cycle a pending event is scheduled for. It returns
// ok=false for the zero Handle and for events that already fired or were
// cancelled.
func (e *Engine) When(h Handle) (when Cycles, ok bool) {
	ev := e.lookup(h)
	if ev == nil {
		return 0, false
	}
	return e.heap[ev.pos].when, true
}

// Cancel removes a pending event. Cancelling the zero Handle, or an event
// that already fired or was already cancelled, is a no-op and reports
// false — even if the event's arena slot has been reused since (the
// generation tag distinguishes occupants).
func (e *Engine) Cancel(h Handle) bool {
	ev := e.lookup(h)
	if ev == nil {
		return false
	}
	e.heapRemove(int(ev.pos))
	e.release(ev, int32(h.ref>>32)-1)
	return true
}

// lookup resolves a Handle to its live arena slot, or nil if the handle is
// zero, stale, or out of range.
func (e *Engine) lookup(h Handle) *event {
	slot := int64(h.ref>>32) - 1
	if slot < 0 || slot >= int64(len(e.events)) {
		return nil
	}
	ev := &e.events[slot]
	if ev.gen != uint32(h.ref) || ev.pos < 0 {
		return nil
	}
	return ev
}

// release retires an arena slot: the generation bump invalidates every
// outstanding Handle to it, the Handler is dropped (so the arena does not
// pin closures), and the slot rejoins the free-list.
//
// When the 32-bit generation tag wraps (after 2^32 recycles of one slot),
// a Handle minted an entire generation cycle ago would alias the slot's
// next occupant. The slot is withdrawn permanently instead of rejoining
// the free-list: pos stays -1, so every outstanding Handle to it is
// correctly stale. The arena leaks one slot per 2^32 recycles of that
// slot; if that ever exhausts the arena, the capacity guard in AtOrdered
// fails loudly rather than silently misordering events.
func (e *Engine) release(ev *event, slot int32) {
	ev.gen++
	ev.h = nil
	ev.pos = -1
	if ev.gen == 0 {
		e.retired++
		return
	}
	e.free = append(e.free, slot)
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	e.heapRemove(0)
	ev := &e.events[top.slot]
	e.now = top.when
	h, msg := ev.h, ev.msg
	e.release(ev, top.slot)
	e.fired++
	h.Fire(msg)
	return true
}

// Run fires events until the queue drains or Stop is called. It returns the
// final simulated time.
func (e *Engine) Run() Cycles {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.now
}

// RunUntil fires events with timestamps <= deadline, then sets the clock to
// deadline (if it has not already passed it).
func (e *Engine) RunUntil(deadline Cycles) Cycles {
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 && e.heap[0].when <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Stop makes the innermost Run or RunUntil return after the current event's
// callback completes.
func (e *Engine) Stop() { e.stopped = true }

// PeekWhen reports the timestamp of the earliest pending event. ok is
// false when the queue is empty. The parallel engine uses it to compute
// the global lower time bound across shards.
func (e *Engine) PeekWhen() (when Cycles, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].when, true
}

// runBefore fires events with timestamps strictly before end. Unlike
// RunUntil it leaves the clock at the last fired event rather than
// advancing it to end: a parallel-engine shard may later receive
// cross-shard events timed inside a later window that starts before end.
func (e *Engine) runBefore(end Cycles) {
	for len(e.heap) > 0 && e.heap[0].when < end {
		e.Step()
	}
}

// --- 4-ary heap over e.heap, ordered by (when, order, seq) ---

const heapArity = 4

// less orders two heap entries by (when, order, seq). seq is unique, so
// the order is total and the firing sequence is independent of heap shape
// — the property that keeps every run byte-identical to the old binary
// container/heap implementation. Sequentially scheduled events all carry
// order 0, so for them the comparison reduces to the historical
// (when, seq).
func less(a, b *heapEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.order != b.order {
		return a.order < b.order
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	x := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !less(&x, &h[parent]) {
			break
		}
		h[i] = h[parent]
		e.events[h[i].slot].pos = int32(i)
		i = parent
	}
	h[i] = x
	e.events[x.slot].pos = int32(i)
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	x := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(&h[c], &h[best]) {
				best = c
			}
		}
		if !less(&h[best], &x) {
			break
		}
		h[i] = h[best]
		e.events[h[i].slot].pos = int32(i)
		i = best
	}
	h[i] = x
	e.events[x.slot].pos = int32(i)
}

// heapRemove deletes the element at heap position i, preserving the heap
// invariant in O(arity · log n).
func (e *Engine) heapRemove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	e.heap[i] = last
	e.events[last.slot].pos = int32(i)
	e.siftDown(i)
	e.siftUp(i)
}
