// Package microbench defines the repo's microbenchmarks once, so the root
// module's `go test -bench` and the benchmark under bench/ measure exactly
// the same code.
//
// The suite has three parts: the public goroutine barrier's arrival path
// (lock-free flat word and combining tree, against a mutex-serialized
// baseline equivalent to the pre-rewrite implementation), the wake-up
// fabric (the sharded timing wheel's many-barrier arm/cancel sweep up to
// a million resident barriers, with tail-lateness quantiles), and the
// simulator's event engine (schedule/fire steady state, which must stay
// allocation-free).
package microbench

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/harness"
	"thriftybarrier/internal/sim"
	"thriftybarrier/thrifty"
)

// Spec names one benchmark of a suite.
type Spec struct {
	Name  string
	Bench func(*testing.B)
}

// RuntimeSpecs is the goroutine-barrier half of the suite: the simulated
// contended-arrival acceptance pair (cycles/round under a modeled 64-CPU
// coherence protocol), then full-round rendezvous costs for the lock-free
// flat word and the combining tree against a mutex-arrival baseline with
// the pre-rewrite shape.
func RuntimeSpecs() []Spec {
	return []Spec{
		{"BarrierArrival/mutex-flat-64", SimulatedArrival(64, 0)},
		{"BarrierArrival/tree-radix4-64", SimulatedArrival(64, 4)},
		{"BarrierArrival/tree-radix8-64", SimulatedArrival(64, 8)},
		{"BarrierRendezvous/mutex-baseline-8", MutexBaseline(8)},
		{"BarrierRendezvous/lockfree-flat-8", Flat(8)},
		{"BarrierRendezvous/mutex-baseline-64", MutexBaseline(64)},
		{"BarrierRendezvous/lockfree-flat-64", Flat(64)},
		{"BarrierRendezvous/tree-radix8-64", Tree(64, 8)},
		{"BarrierRendezvous/tree-radix8-256", Tree(256, 8)},
		{"Predict/warm", PredictWarm()},
		{"Predict/update", PredictUpdate()},
	}
}

// SizeLabel renders a count for a benchmark name: exact thousands
// compress to "1k"/"100k", exact millions to "1M", anything else is the
// plain decimal — so labels stay correct for every n, unlike a
// hand-rolled digit-pair itoa.
func SizeLabel(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return strconv.Itoa(n/1_000_000) + "M"
	case n >= 1_000 && n%1_000 == 0:
		return strconv.Itoa(n/1_000) + "k"
	default:
		return strconv.Itoa(n)
	}
}

// SimSpecs is the event-engine half of the suite.
func SimSpecs() []Spec {
	return []Spec{
		{"EngineScheduleFire/empty", EngineScheduleFire(0)},
		{"EngineScheduleFire/pending-1k", EngineScheduleFire(1024)},
		{"EngineScheduleCancelFire", EngineScheduleCancelFire()},
		{"ParallelEngine/shards-1", ParallelEngineEvents(1)},
		{"ParallelEngine/shards-4", ParallelEngineEvents(4)},
		{"ParallelEngine/shards-8", ParallelEngineEvents(8)},
		{"ParallelCore/seq", ParallelCoreEvents(0)},
		{"ParallelCore/shards-1", ParallelCoreEvents(1)},
		{"ParallelCore/shards-4", ParallelCoreEvents(4)},
		{"ParallelCore/shards-8", ParallelCoreEvents(8)},
	}
}

// SimulatedArrival measures one warm barrier round-trip on the simulated
// nodes-CPU machine (arity 0 = the paper's flat lock-protected counter),
// reporting the modeled contended-arrival cost as cycles/round and its
// inverse throughput as rounds/Mcycle.
func SimulatedArrival(nodes, arity int) func(*testing.B) {
	return func(b *testing.B) {
		var cyc sim.Cycles
		for i := 0; i < b.N; i++ {
			cyc = harness.BarrierRoundLatency(nodes, arity, 1)
		}
		b.ReportMetric(float64(cyc), "cycles/round")
		b.ReportMetric(1e6/float64(cyc), "rounds/Mcycle")
	}
}

// barrierRounds drives parties goroutines through b.N rendezvous each;
// ns/op is therefore the per-party cost of one barrier crossing.
func barrierRounds(b *testing.B, parties int, wait func()) {
	b.ReportAllocs()
	var wg sync.WaitGroup
	rounds := b.N
	b.ResetTimer()
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				wait()
			}
		}()
	}
	wg.Wait()
}

// Flat benchmarks the lock-free central-counter arrival.
func Flat(parties int) func(*testing.B) {
	return func(b *testing.B) {
		bar := thrifty.New(parties, thrifty.Options{})
		barrierRounds(b, parties, func() { bar.WaitSite(1) })
	}
}

// Tree benchmarks the combining-tree arrival.
func Tree(parties, radix int) func(*testing.B) {
	return func(b *testing.B) {
		bar := thrifty.New(parties, thrifty.Options{TreeRadix: radix})
		barrierRounds(b, parties, func() { bar.WaitSite(1) })
	}
}

// MutexBaseline benchmarks a barrier whose arrival is serialized through a
// mutex critical section — the shape of the pre-rewrite thrifty.Barrier:
// every arrival locks, counts, and the last one swaps the round and
// broadcasts; early arrivers spin briefly on the round flag, then park on
// its channel (the warm-up spin-then-park policy).
func MutexBaseline(parties int) func(*testing.B) {
	return func(b *testing.B) {
		bar := newMutexBarrier(parties)
		barrierRounds(b, parties, bar.wait)
	}
}

type mutexRound struct {
	ch   chan struct{}
	done atomic.Bool
}

type mutexBarrier struct {
	mu      sync.Mutex
	parties int
	count   int
	cur     *mutexRound
}

func newMutexBarrier(parties int) *mutexBarrier {
	return &mutexBarrier{parties: parties, cur: &mutexRound{ch: make(chan struct{})}}
}

func (b *mutexBarrier) wait() {
	b.mu.Lock()
	b.count++
	if b.count == b.parties {
		b.count = 0
		old := b.cur
		b.cur = &mutexRound{ch: make(chan struct{})}
		old.done.Store(true)
		b.mu.Unlock()
		close(old.ch)
		return
	}
	rd := b.cur
	b.mu.Unlock()
	// Bounded spin on the release flag, then park — the pre-rewrite
	// warm-up policy (only the arrival itself held the mutex).
	for i := 0; i < 4096; i++ {
		if rd.done.Load() {
			return
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
	<-rd.ch
}

// EngineScheduleFire benchmarks one schedule + one fire against a queue
// holding `pending` other events — the simulator's steady-state op. It
// must report 0 allocs/op.
func EngineScheduleFire(pending int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine()
		fn := func() {}
		for i := 0; i < pending; i++ {
			e.After(sim.Cycles(1_000_000+i), fn)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.After(10, fn)
			e.Step()
		}
	}
}

// ParallelEngineEvents drives the conservative parallel engine through a
// 64-rank token-ring workload — every event hops to the next rank exactly
// one lookahead ahead, ranks block-mapped onto shards, so consecutive hops
// cross shard boundaries and every window carries cross-shard merges. The
// headline metric is ns/event; shards-1 measures the sequential golden
// reference's window overhead against the raw engine numbers above.
func ParallelEngineEvents(shards int) func(*testing.B) {
	return func(b *testing.B) {
		const (
			ranks     = 64
			tokens    = 64
			hops      = 256
			lookahead = sim.Cycles(48)
		)
		for i := 0; i < b.N; i++ {
			pe := sim.NewParallelEngine(shards, lookahead)
			owner := make([]int, ranks)
			for r := range owner {
				owner[r] = r * shards / ranks
			}
			counter := make([]uint32, ranks)
			order := func(r int) uint64 {
				counter[r]++
				return uint64(r)<<32 | uint64(counter[r])
			}
			var hop func(r, left int) func()
			hop = func(r, left int) func() {
				return func() {
					if left == 0 {
						return
					}
					s := pe.Shard(owner[r])
					next := (r + 1) % ranks
					when := s.Now() + lookahead
					o := order(r)
					fn := hop(next, left-1)
					if owner[next] == owner[r] {
						s.At(when, o, fn)
					} else {
						s.Post(owner[next], when, o, fn)
					}
				}
			}
			for k := 0; k < tokens; k++ {
				r := k % ranks
				pe.Shard(owner[r]).At(sim.Cycles(k+1), order(r), hop(r, hops))
			}
			pe.Run()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tokens*(hops+1)), "ns/event")
	}
}

// ParallelCoreEvents drives the full sharded CC-NUMA core machine —
// caches, directories, predictor, sleep transitions — through a short
// Thrifty run at 64 CPUs (8-CPU NoC regions, the core-scaling study's
// workload) and reports ns/event over the machine's own event count.
// Machine construction is outside the timer, so ns/event is per-event
// cost only. shards 0 is the plain sequential engine, the golden
// reference; shards-1 isolates the parallel engine's window overhead on
// identical physics; shards-4/8 measure the conservative-window
// throughput the 256-CPU study leans on.
func ParallelCoreEvents(shards int) func(*testing.B) {
	return func(b *testing.B) {
		arch := core.DefaultArch().WithNodes(64)
		arch.RegionNodes = 8
		prog := harness.CoreScalingProgram(1, 64, 6)
		var events uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m, err := core.NewParallelMachine(arch, core.Thrifty())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			events += m.Run(prog, shards).Events
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}

// EngineScheduleCancelFire exercises the Cancel path: schedule two, cancel
// one by handle, fire the other.
func EngineScheduleCancelFire() func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine()
		fn := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := e.After(20, fn)
			e.After(10, fn)
			e.Cancel(h)
			e.Step()
		}
	}
}
