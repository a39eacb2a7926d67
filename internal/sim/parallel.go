package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// ParallelEngine is a conservative parallel discrete-event engine: the
// event queue is sharded (one arena Engine per shard, typically one shard
// per NoC region of the modeled machine), and shards execute concurrently
// inside time windows of width equal to the model's lookahead — the
// minimum latency of any cross-shard interaction, which for the modeled
// machines is the one-hop NoC message latency. The invariant that makes
// this safe is the classic conservative-simulation one: an event executing
// at time t can only schedule cross-shard work at t+lookahead or later, so
// no event inside the window [T, T+lookahead) can affect another shard
// within the same window.
//
// The window loop is a sequence of barriers:
//
//  1. T = min pending timestamp across all shards (PeekWhen).
//  2. Every shard concurrently fires its events with when < T+lookahead.
//     Same-shard scheduling (EngineShard.At) is unrestricted; cross-shard
//     messages (EngineShard.Post) are buffered in per-shard outboxes and
//     must satisfy when >= T+lookahead — a violation panics, because it
//     means the model lied about its lookahead.
//  3. Outboxes are drained in shard order, sorted by (when, order), and
//     merged into the destination queues; repeat.
//
// Determinism: every event carries a model-supplied order key, and each
// shard fires in (when, order) order regardless of when a message was
// merged into its queue. As long as the model (a) keys events with
// (when, order) pairs that are unique per destination shard and (b)
// derives the keys from simulation state only (e.g. source-rank counters),
// the complete run — every callback, in order, per shard — is independent
// of the shard count and of host scheduling. A single-shard ParallelEngine
// therefore serves as the sequential golden reference for any shard count,
// and the cross-shard determinism tests assert exactly that.
//
// A ParallelEngine must not be copied, for the same reason an Engine must
// not be.
type ParallelEngine struct {
	shards    []*EngineShard
	lookahead Cycles
	now       Cycles // start of the executing (or last executed) window
	windowEnd Cycles // exclusive upper bound of the executing window
	windows   uint64
	posted    uint64
	stopped   atomic.Bool
	merge     []mergeKey // reusable merge buffer
	active    []*EngineShard
}

// EngineShard is one shard of a ParallelEngine: a private event queue plus
// an outbox for cross-shard messages. Methods on an EngineShard are safe
// to call either before Run or from a callback executing on that same
// shard; calling into a foreign shard mid-window is a data race (the tests
// run under -race to enforce the discipline).
type EngineShard struct {
	id     int
	pe     *ParallelEngine
	eng    *Engine
	outbox []post
}

// mergeKey locates one outbox message by its sort key.
type mergeKey struct {
	when       Cycles
	order      uint64
	shard, idx int32
}

// post is one buffered cross-shard message.
type post struct {
	dst   int
	when  Cycles
	order uint64
	h     Handler
	msg   Msg
}

// NewParallelEngine builds an engine with the given shard count and
// lookahead (the minimum cross-shard scheduling distance, in cycles). It
// panics on a non-positive shard count or lookahead: a zero lookahead
// would make every window empty and the engine livelock.
func NewParallelEngine(shards int, lookahead Cycles) *ParallelEngine {
	if shards < 1 {
		panic(fmt.Sprintf("sim: parallel engine needs >= 1 shard, got %d", shards))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: parallel engine needs positive lookahead, got %d", lookahead))
	}
	p := &ParallelEngine{lookahead: lookahead}
	p.shards = make([]*EngineShard, shards)
	for i := range p.shards {
		p.shards[i] = &EngineShard{id: i, pe: p, eng: NewEngine()}
	}
	return p
}

// Shards reports the shard count.
func (p *ParallelEngine) Shards() int { return len(p.shards) }

// Shard returns shard i.
func (p *ParallelEngine) Shard(i int) *EngineShard { return p.shards[i] }

// Lookahead reports the configured lookahead.
func (p *ParallelEngine) Lookahead() Cycles { return p.lookahead }

// Now reports the start of the most recent window — the global lower bound
// on pending work. Individual shards advance independently inside a
// window; use EngineShard.Now for a shard-local clock.
func (p *ParallelEngine) Now() Cycles { return p.now }

// Windows reports how many time windows have executed.
func (p *ParallelEngine) Windows() uint64 { return p.windows }

// Posted reports how many cross-shard messages have been merged.
func (p *ParallelEngine) Posted() uint64 { return p.posted }

// Fired reports the total number of events dispatched across all shards.
func (p *ParallelEngine) Fired() uint64 {
	var sum uint64
	for _, s := range p.shards {
		sum += s.eng.Fired()
	}
	return sum
}

// Pending reports the total number of queued events across all shards.
func (p *ParallelEngine) Pending() int {
	var sum int
	for _, s := range p.shards {
		sum += s.eng.Pending()
	}
	return sum
}

// Stop makes Run return at the next window boundary. Unlike Engine.Stop it
// does not interrupt the window in flight: shards finish their current
// window so that the stop point is a consistent cut of the simulation.
func (p *ParallelEngine) Stop() { p.stopped.Store(true) }

// Run executes windows until every shard's queue (and every outbox) is
// drained or Stop is called, and returns the maximum shard-local time.
func (p *ParallelEngine) Run() Cycles {
	p.stopped.Store(false)
	for !p.stopped.Load() {
		t, ok := p.nextTime()
		if !ok {
			break
		}
		p.now = t
		end := t + p.lookahead
		if end < t { // overflow clamp near MaxCycles
			end = MaxCycles
		}
		p.windowEnd = end
		p.runWindow(end)
		p.windows++
		p.flush()
	}
	var max Cycles
	for _, s := range p.shards {
		if n := s.eng.Now(); n > max {
			max = n
		}
	}
	return max
}

// nextTime is the minimum pending timestamp across shards.
func (p *ParallelEngine) nextTime() (Cycles, bool) {
	var t Cycles
	ok := false
	for _, s := range p.shards {
		if w, k := s.eng.PeekWhen(); k && (!ok || w < t) {
			t, ok = w, true
		}
	}
	return t, ok
}

// runWindow fires, on every shard concurrently, the events with
// timestamps strictly before end. A window with a single active shard
// runs inline: sparse regions of simulated time cost no goroutines, and
// a one-shard engine degenerates to a purely sequential loop.
func (p *ParallelEngine) runWindow(end Cycles) {
	active := p.active[:0]
	for _, s := range p.shards {
		if w, ok := s.eng.PeekWhen(); ok && w < end {
			active = append(active, s)
		}
	}
	if len(active) == 0 {
		// Only reachable when pending events sit exactly at MaxCycles: the
		// overflow clamp cannot push the (exclusive) window end past the
		// sentinel, so fire them inclusively and sequentially instead of
		// spinning forever on an empty window.
		for _, s := range p.shards {
			s.eng.RunUntil(end)
		}
		return
	}
	if len(active) == 1 {
		active[0].eng.runBefore(end)
		p.active = active[:0]
		return
	}
	var wg sync.WaitGroup
	for _, s := range active {
		wg.Add(1)
		go func(s *EngineShard) {
			defer wg.Done()
			s.eng.runBefore(end)
		}(s)
	}
	wg.Wait()
	p.active = active[:0]
}

// flush merges every outbox into the destination queues in (when, order)
// order, ties kept in shard order and then outbox order — a stable sort
// of the outboxes' concatenation — so the destination-queue insertion
// order, and with it the seq tie-break that backstops duplicate keys, is
// deterministic for a given shard count. It sorts small keys that point
// into the outboxes rather than the messages themselves.
func (p *ParallelEngine) flush() {
	keys := p.merge[:0]
	for si, s := range p.shards {
		for i := range s.outbox {
			m := &s.outbox[i]
			keys = append(keys, mergeKey{when: m.when, order: m.order, shard: int32(si), idx: int32(i)})
		}
	}
	slices.SortFunc(keys, func(a, b mergeKey) int {
		if c := cmp.Compare(a.when, b.when); c != 0 {
			return c
		}
		if c := cmp.Compare(a.order, b.order); c != 0 {
			return c
		}
		if c := cmp.Compare(a.shard, b.shard); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	for _, k := range keys {
		m := &p.shards[k.shard].outbox[k.idx]
		p.shards[m.dst].eng.AtMsg(m.when, m.order, m.h, m.msg)
		m.h = nil // don't pin closures in the spare capacity
	}
	for _, s := range p.shards {
		s.outbox = s.outbox[:0]
	}
	p.posted += uint64(len(keys))
	p.merge = keys[:0]
}

// ID reports the shard's index.
func (s *EngineShard) ID() int { return s.id }

// Now reports the shard-local clock: the timestamp of the last event fired
// on this shard.
func (s *EngineShard) Now() Cycles { return s.eng.Now() }

// Fired reports the number of events dispatched on this shard.
func (s *EngineShard) Fired() uint64 { return s.eng.Fired() }

// At schedules fn at when on this shard with the given order key; it is
// AtMsg for a callback.
func (s *EngineShard) At(when Cycles, order uint64, fn func()) Handle {
	return s.eng.AtMsg(when, order, callback(fn), Msg{})
}

// AtMsg schedules h.Fire(msg) at when on this shard with the given order
// key. It is the shard-local analogue of Engine.AtMsg (same
// past-scheduling and capacity panics) and may only be called before Run
// or from a callback executing on this shard.
func (s *EngineShard) AtMsg(when Cycles, order uint64, h Handler, msg Msg) Handle {
	return s.eng.AtMsg(when, order, h, msg)
}

// Cancel removes a pending event scheduled on this shard. Like At, it may
// only be called before Run or from a callback executing on this shard.
func (s *EngineShard) Cancel(h Handle) bool { return s.eng.Cancel(h) }

// Post schedules fn at when on shard dst; it is PostMsg for a callback.
func (s *EngineShard) Post(dst int, when Cycles, order uint64, fn func()) {
	s.PostMsg(dst, when, order, callback(fn), Msg{})
}

// PostMsg schedules h.Fire(msg) at when on shard dst. The message is
// buffered and merged at the end of the current window; when must lie at
// or beyond the window end (the lookahead guarantee), and a violation
// panics — it means an event tried to affect another shard within the
// same window, which the conservative synchronization cannot order.
//
// Posting to the shard itself is allowed (the message simply takes the
// merge path); models normally use AtMsg for shard-local work instead,
// which also permits delays below the lookahead.
func (s *EngineShard) PostMsg(dst int, when Cycles, order uint64, h Handler, msg Msg) {
	p := s.pe
	if dst < 0 || dst >= len(p.shards) {
		panic(fmt.Sprintf("sim: post to shard %d out of range [0,%d)", dst, len(p.shards)))
	}
	if when < p.windowEnd {
		panic(fmt.Sprintf(
			"sim: lookahead violation: cross-shard event at %d inside the executing window ending at %d (lookahead %d)",
			when, p.windowEnd, p.lookahead))
	}
	s.outbox = append(s.outbox, post{dst: dst, when: when, order: order, h: h, msg: msg})
}
