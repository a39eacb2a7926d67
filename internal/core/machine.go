package core

import (
	"fmt"

	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/energy"
	"thriftybarrier/internal/mem/coherence"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/predict"
	"thriftybarrier/internal/sim"
)

// Arch bundles the hardware configuration of the simulated machine.
type Arch struct {
	Nodes     int
	CPU       cpu.Config
	Coherence coherence.Config
	NoC       noc.Config
	PageBytes int
	// Activity is the compute-phase activity mix used for power.
	Activity power.Activity
	// Seed drives all randomness in the run.
	Seed uint64
	// RegionNodes is the NoC region size used by the sharded core machine
	// (ParallelMachine): nodes are partitioned into Nodes/RegionNodes
	// contiguous regions, each with its own directory slice and cache
	// models, mapped whole onto engine shards. Zero means the default of
	// min(Nodes, 8). The sequential Machine ignores it.
	RegionNodes int
}

// Regions returns the region count implied by RegionNodes (resolving the
// zero default).
func (a Arch) Regions() int {
	return a.Nodes / a.regionNodes()
}

func (a Arch) regionNodes() int {
	rn := a.RegionNodes
	if rn == 0 {
		rn = 8
	}
	if rn > a.Nodes {
		rn = a.Nodes
	}
	return rn
}

// DefaultArch reproduces Table 1: a 64-node CC-NUMA machine.
func DefaultArch() Arch {
	return Arch{
		Nodes:     64,
		CPU:       cpu.DefaultConfig(),
		Coherence: coherence.DefaultConfig(),
		NoC:       noc.DefaultConfig(),
		PageBytes: 4096,
		Activity:  power.TypicalCompute(),
		Seed:      1,
	}
}

// WithNodes returns a copy of the architecture scaled to n nodes (n must be
// a power of two ≤ 1024; past 64 nodes the sharded ParallelMachine is the
// intended runner, though the sequential Machine still works as the
// golden reference).
func (a Arch) WithNodes(n int) Arch {
	a.Nodes = n
	a.Coherence.Nodes = n
	a.NoC.Nodes = n
	return a
}

// barrierLine spacing: each static barrier gets a count line and a flag
// line, 64 bytes apart, in a dedicated shared region.
const (
	barrierBase   = uint64(1) << 40
	barrierStride = 8192
	flagOffset    = 4096
)

// waitKind classifies how an early thread is waiting.
type waitKind uint8

const (
	waitSpin waitKind = iota
	waitSleep
	waitResidualSpin // woke early (or falsely); spinning until release
	waitOracle       // resolved analytically at release
	waitYield        // §3.4.1 time-sharing: CPU yielded to other work
)

// waiter is one early-arrived thread's state within an episode.
type waiter struct {
	thread  int
	kind    waitKind
	readyAt sim.Cycles // when waiting began (post check-in, post decision)

	// Sleep bookkeeping.
	state         power.SleepState
	gated         bool
	sleepStart    sim.Cycles
	predictedWake sim.Cycles
	timer         sim.Handle
	cancelMonitor func()
	woken         bool
	wokeReady     sim.Cycles // when the CPU was executing again
	residualFrom  sim.Cycles

	departed bool
}

// episode is one dynamic barrier instance in flight.
type episode struct {
	phase      int
	pc         uint64
	countAddr  uint64
	flagAddr   uint64
	arrived    int
	lockFreeAt sim.Cycles
	// Combining-tree check-in state (TreeArity >= 2): per level, per
	// group, the counter-line serialization point and the check-in count.
	treeLockFree [][]sim.Cycles
	treeCount    [][]int
	released     bool
	releaseAt    sim.Cycles
	bit          sim.Cycles
	waiters      []*waiter
	lastThread   int

	// Per-thread timing for records.
	arriveAt []sim.Cycles
	departAt []sim.Cycles
}

// Stats aggregates run-level mechanism counters.
type Stats struct {
	Episodes        int
	Spins           int            // early threads that spun conventionally
	Yields          int            // early threads that yielded (TimeShare policy)
	Sleeps          map[string]int // sleeps per state name
	EarlyWakes      int            // internal timer fired before release
	ExternalWakes   int            // invalidation-triggered wakes
	LateWakes       int            // woke after release + exit transition
	Disables        int            // cut-off disables issued
	DVFSScaled      int            // phases run below nominal frequency
	DVFSFreqSum     float64
	FlushLines      int // lines written back before gated sleeps
	OracleSleeps    int
	FalseWakeups    int
	PredictorHits   uint64
	PredictorMisses uint64
	SkippedUpdates  uint64

	// Fault-injection counters (zero unless Options.Faults is set).
	DroppedWakeups   int // external wake-up invalidations lost
	TimerFailures    int // armed internal timers that never fired
	DriftedTimers    int // internal timers that fired late
	Recoveries       int // stranded sleepers revived by the OS watchdog
	InjectedPreempts int // fault-plan preemptions
	InjectedStalls   int // fault-plan node stalls
}

// Result is the outcome of one run.
type Result struct {
	Breakdown energy.Breakdown
	Span      sim.Cycles
	Stats     Stats
	Episodes  []EpisodeRecord
}

// EpisodeRecord captures one dynamic barrier instance for analysis
// (Figure 3, the harness tables, and the Chrome-trace exporter).
type EpisodeRecord struct {
	Phase     int
	PC        uint64
	ReleaseAt sim.Cycles
	BIT       sim.Cycles
	Arrive    []sim.Cycles
	Depart    []sim.Cycles
	// Waits describes how each thread waited (empty Kind for the
	// releasing thread).
	Waits []ThreadWait
}

// ThreadWait is one thread's waiting behaviour in one episode.
type ThreadWait struct {
	// Kind is "spin", "sleep", "residual", "oracle", "yield", or
	// "release" for the last-arriving thread.
	Kind string
	// State names the sleep state used, if any.
	State string
}

func (k waitKind) label() string {
	switch k {
	case waitSpin:
		return "spin"
	case waitSleep:
		return "sleep"
	case waitResidualSpin:
		return "residual"
	case waitOracle:
		return "oracle"
	case waitYield:
		return "yield"
	}
	return "?"
}

// Machine is the simulated multiprocessor running one Program under one
// barrier configuration.
type Machine struct {
	arch Arch
	opts Options

	engine *sim.Engine
	proto  *coherence.Protocol
	model  *power.Model
	cpus   []*cpu.CPU
	table  *predict.Table
	bst    *predict.BSTTable
	rng    *sim.RNG

	prog     Program
	episodes map[int]*episode
	brts     []sim.Cycles // per-thread local release timestamps (§3.2.1)
	finish   []sim.Cycles
	pcAddrs  map[uint64][2]uint64
	nextAddr uint64

	record   bool
	records  []EpisodeRecord
	stats    Stats
	detectRT sim.Cycles // fallback flag-detection latency
	tree     *treeShape
}

// treeShape precomputes the combining tree of a TreeArity barrier.
type treeShape struct {
	arity int
	// childCount[level][group] is how many check-ins complete the group.
	childCount [][]int
	// offsets[level] is the cumulative counter-line index of the level.
	offsets []int
	lines   int
}

func newTreeShape(nodes, arity int) *treeShape {
	t := &treeShape{arity: arity}
	width := nodes
	for width > 1 {
		groups := (width + arity - 1) / arity
		counts := make([]int, groups)
		for g := range counts {
			c := width - g*arity
			if c > arity {
				c = arity
			}
			counts[g] = c
		}
		t.childCount = append(t.childCount, counts)
		t.offsets = append(t.offsets, t.lines)
		t.lines += groups
		width = groups
	}
	return t
}

// NewMachine assembles a machine. RecordEpisodes enables per-episode
// arrival/departure capture (needed for Figure 3 and Table 2 analysis).
func NewMachine(arch Arch, opts Options) *Machine {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	if arch.Nodes != arch.Coherence.Nodes || arch.Nodes != arch.NoC.Nodes {
		panic(fmt.Sprintf("core: inconsistent node counts %d/%d/%d", arch.Nodes, arch.Coherence.Nodes, arch.NoC.Nodes))
	}
	if opts.effectiveTopology() == TopologyNoCTree {
		panic("core: the NoC-matched tree is region-defined; use NewParallelMachine")
	}
	net := noc.New(arch.NoC)
	place := dram.NewPlacement(arch.Nodes, arch.PageBytes)
	proto := coherence.New(arch.Coherence, net, place)
	var model *power.Model
	if len(opts.States) > 0 {
		model = power.NewModel(power.DefaultUnitEnergies(), opts.States)
	} else {
		model = power.NewModel(power.DefaultUnitEnergies(), power.Table3())
	}
	m := &Machine{
		arch:     arch,
		opts:     opts,
		engine:   sim.NewEngine(),
		proto:    proto,
		model:    model,
		cpus:     make([]*cpu.CPU, arch.Nodes),
		table:    predict.NewTable(opts.Predictor),
		bst:      predict.NewBSTTable(),
		rng:      sim.NewRNG(arch.Seed),
		episodes: make(map[int]*episode),
		brts:     make([]sim.Cycles, arch.Nodes),
		finish:   make([]sim.Cycles, arch.Nodes),
		pcAddrs:  make(map[uint64][2]uint64),
		nextAddr: barrierBase,
		detectRT: net.MaxLatency(arch.Coherence.DataBytes),
	}
	for i := range m.cpus {
		m.cpus[i] = cpu.New(i, arch.CPU, proto, model, arch.Activity)
	}
	if opts.TreeArity >= 2 {
		m.tree = newTreeShape(arch.Nodes, opts.TreeArity)
		if m.tree.lines*64 > flagOffset {
			panic(fmt.Sprintf("core: tree needs %d counter lines, exceeding the barrier region", m.tree.lines))
		}
	}
	m.stats.Sleeps = make(map[string]int)
	return m
}

// SetRecording enables per-episode records.
func (m *Machine) SetRecording(on bool) { m.record = on }

// Proto exposes the coherence substrate (tests and harness diagnostics).
func (m *Machine) Proto() *coherence.Protocol { return m.proto }

// Model exposes the power model in use.
func (m *Machine) Model() *power.Model { return m.model }

// Predictor exposes the BIT table (tests and ablation diagnostics).
func (m *Machine) Predictor() *predict.Table { return m.table }

// barrierAddrs returns (count line, flag line) for a static barrier,
// allocating them in the shared region on first use.
func (m *Machine) barrierAddrs(pc uint64) (count, flag uint64) {
	if a, ok := m.pcAddrs[pc]; ok {
		return a[0], a[1]
	}
	count = m.nextAddr
	flag = m.nextAddr + flagOffset
	m.nextAddr += barrierStride
	m.pcAddrs[pc] = [2]uint64{count, flag}
	return count, flag
}

// Run executes prog to completion and returns the measured result.
func (m *Machine) Run(prog Program) Result {
	if prog.Phases() == 0 {
		return Result{}
	}
	m.prog = prog
	for t := 0; t < m.arch.Nodes; t++ {
		t := t
		m.engine.At(0, func() { m.startPhase(t, 0, 0) })
	}
	m.engine.Run()

	var span sim.Cycles
	timelines := make([]*sim.Timeline, m.arch.Nodes)
	for t := 0; t < m.arch.Nodes; t++ {
		timelines[t] = m.cpus[t].Timeline()
		if m.finish[t] > span {
			span = m.finish[t]
		}
	}
	hits, misses, _, skipped, _ := m.table.Stats()
	m.stats.PredictorHits = hits
	m.stats.PredictorMisses = misses
	m.stats.SkippedUpdates = skipped
	return Result{
		Breakdown: energy.Collect(timelines, span),
		Span:      span,
		Stats:     m.stats,
		Episodes:  m.records,
	}
}

// startPhase begins phase k for thread t at time at (or records completion).
func (m *Machine) startPhase(t, k int, at sim.Cycles) {
	if k >= m.prog.Phases() {
		m.finish[t] = at
		return
	}
	spec := m.prog.Phase(k)
	var dur sim.Cycles
	if m.opts.DVFS {
		dur = m.runSegmentDVFS(t, k, at, spec)
	} else {
		dur = m.cpus[t].RunSegment(at, spec.Segment(t))
	}
	if spec.PreemptThread == t && spec.PreemptDelay > 0 {
		// The OS preempts this thread mid-phase (§3.4.2); the CPU runs
		// other work, charged as Compute from the application's view.
		m.cpus[t].ChargeCompute(spec.PreemptDelay)
		dur += spec.PreemptDelay
	}
	// Fault-plan scheduling noise: injected preemptions (§3.4.2 storms)
	// and long node stalls both delay this thread's arrival; like the
	// scripted preemption above they are charged as Compute ("other
	// stalls … fall into this category", §5.2).
	if d, ok := m.opts.Faults.PreemptAt(k, t); ok {
		m.cpus[t].ChargeCompute(d)
		dur += d
		m.stats.InjectedPreempts++
	}
	if d, ok := m.opts.Faults.StallAt(k, t); ok {
		m.cpus[t].ChargeCompute(d)
		dur += d
		m.stats.InjectedStalls++
	}
	arrive := at + dur
	m.engine.At(arrive, func() { m.arrive(t, k, arrive) })
}

// runSegmentDVFS picks a frequency from the predicted slack — the
// interval prediction says when the barrier will release; the per-thread
// compute predictor says how much work lies ahead — runs the segment
// scaled, and updates the compute predictor with the f=1-equivalent
// duration.
func (m *Machine) runSegmentDVFS(t, k int, at sim.Cycles, spec PhaseSpec) sim.Cycles {
	f := 1.0
	var budget sim.Cycles
	if predC, okC := m.bst.Predict(spec.PC, t); okC && predC > 0 {
		if bit, okB := m.table.Predict(spec.PC); okB {
			available := float64(m.brts[t]+bit-at) * m.opts.DVFSMargin
			if available > float64(predC) {
				f = float64(predC) / available
				if f < m.opts.DVFSMinFreq {
					f = m.opts.DVFSMinFreq
				}
				budget = predC // ramp to nominal past the predicted work
			}
		}
	}
	dur, baseEquiv := m.cpus[t].RunSegmentDVFS(at, spec.Segment(t), f, budget)
	m.bst.Update(spec.PC, t, baseEquiv)
	if f < 1 {
		m.stats.DVFSScaled++
	}
	m.stats.DVFSFreqSum += f
	return dur
}

// episodeFor returns (creating if needed) the episode of phase k.
func (m *Machine) episodeFor(k int) *episode {
	ep := m.episodes[k]
	if ep == nil {
		spec := m.prog.Phase(k)
		count, flag := m.barrierAddrs(spec.PC)
		ep = &episode{
			phase:     k,
			pc:        spec.PC,
			countAddr: count,
			flagAddr:  flag,
			arriveAt:  make([]sim.Cycles, m.arch.Nodes),
			departAt:  make([]sim.Cycles, m.arch.Nodes),
		}
		if m.tree != nil {
			ep.treeLockFree = make([][]sim.Cycles, len(m.tree.childCount))
			ep.treeCount = make([][]int, len(m.tree.childCount))
			for l, counts := range m.tree.childCount {
				ep.treeLockFree[l] = make([]sim.Cycles, len(counts))
				ep.treeCount[l] = make([]int, len(counts))
			}
		}
		m.episodes[k] = ep
	}
	return ep
}

// arrive handles thread t reaching the barrier of phase k at time now:
// check-in on the count line (serialized by the barrier lock), then either
// wait (early) or release (last).
func (m *Machine) arrive(t, k int, now sim.Cycles) {
	ep := m.episodeFor(k)
	done, last := m.checkIn(ep, t, now)
	// Lock wait and the count RMW(s) are Compute ("other stalls such as
	// memory or locks fall into this category", §5.2).
	m.cpus[t].ChargeCompute(done - now)
	ep.arrived++
	ep.arriveAt[t] = done

	if !last {
		m.wait(t, ep, done)
		return
	}
	m.release(t, ep, done)
}

// checkIn performs the barrier check-in and reports whether this thread
// completed the barrier (the releasing thread). The flat form is Figure 2's
// lock-protected counter; the tree form climbs a combining tree, with each
// group's counter line serializing only that group's check-ins.
func (m *Machine) checkIn(ep *episode, t int, now sim.Cycles) (done sim.Cycles, last bool) {
	if m.tree == nil {
		start := now
		if ep.lockFreeAt > start {
			start = ep.lockFreeAt
		}
		res := m.proto.Write(t, ep.countAddr, start)
		done = start + res.Latency + m.opts.CheckinCost
		ep.lockFreeAt = done
		return done, ep.arrived == m.arch.Nodes-1
	}
	cur := now
	g := t / m.tree.arity
	for level := 0; ; level++ {
		start := cur
		if ep.treeLockFree[level][g] > start {
			start = ep.treeLockFree[level][g]
		}
		addr := ep.countAddr + uint64(m.tree.offsets[level]+g)*64
		res := m.proto.Write(t, addr, start)
		done = start + res.Latency + m.opts.CheckinCost
		ep.treeLockFree[level][g] = done
		ep.treeCount[level][g]++
		if ep.treeCount[level][g] < m.tree.childCount[level][g] {
			return done, false
		}
		if level == len(m.tree.childCount)-1 {
			return done, true
		}
		cur = done
		g /= m.tree.arity
	}
}

// depart completes thread t's participation in ep at time dep: applies the
// §3.2.1 BRTS update, the §3.3.3 cut-off check for sleepers, and starts the
// next phase.
func (m *Machine) depart(t int, ep *episode, w *waiter, dep sim.Cycles) {
	if w != nil {
		if w.departed {
			return
		}
		w.departed = true
		m.engine.Cancel(w.timer)
		w.timer = sim.Handle{}
		if w.cancelMonitor != nil {
			w.cancelMonitor()
			w.cancelMonitor = nil
		}
	}
	// BRTS_b = BRTS_{b-1} + BIT_b, reconstructing the release timestamp
	// without a global clock (§3.2.1).
	m.brts[t] += ep.bit

	if w != nil && w.kind == waitSleep && !m.opts.Oracle && m.opts.Cutoff > 0 && ep.bit > 0 {
		penalty := w.wokeReady - m.brts[t]
		if float64(penalty) > m.opts.Cutoff*float64(ep.bit) {
			m.table.Disable(ep.pc, t)
			m.stats.Disables++
		}
	}
	if m.opts.BSTDirect && w != nil && ep.releaseAt >= w.readyAt {
		// Direct BST strawman learns the observed stall. A spinner that
		// became ready only after the release never stalled: no sample.
		m.bst.Update(ep.pc, t, ep.releaseAt-w.readyAt)
	}

	ep.departAt[t] = dep
	m.finalizeEpisode(ep)
	m.startPhase(t, ep.phase+1, dep)
}

// finalizeEpisode records and releases an episode once every thread left.
func (m *Machine) finalizeEpisode(ep *episode) {
	for _, d := range ep.departAt {
		if d == 0 {
			return
		}
	}
	if m.record {
		rec := EpisodeRecord{
			Phase:     ep.phase,
			PC:        ep.pc,
			ReleaseAt: ep.releaseAt,
			BIT:       ep.bit,
			Arrive:    append([]sim.Cycles(nil), ep.arriveAt...),
			Depart:    append([]sim.Cycles(nil), ep.departAt...),
			Waits:     make([]ThreadWait, m.arch.Nodes),
		}
		rec.Waits[ep.lastThread] = ThreadWait{Kind: "release"}
		for _, w := range ep.waiters {
			tw := ThreadWait{Kind: w.kind.label()}
			if w.kind == waitSleep || (w.kind == waitOracle && w.state.Transition > 0) ||
				(w.kind == waitResidualSpin && w.state.Transition > 0) {
				tw.State = w.state.Name
			}
			rec.Waits[w.thread] = tw
		}
		m.records = append(m.records, rec)
	}
	delete(m.episodes, ep.phase)
}
