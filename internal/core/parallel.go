package core

import (
	"fmt"
	"math/bits"

	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/energy"
	"thriftybarrier/internal/mem/coherence"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/predict"
	"thriftybarrier/internal/sim"
)

// ParallelMachine is the simulated CC-NUMA multiprocessor running one
// Program under one barrier configuration. Its nodes are partitioned into
// NoC regions (Arch.RegionNodes; by default one region, the paper's
// single directory) so it can also run on sim.ParallelEngine: each region
// owns its CPUs, private caches, a directory/memory slice, and the
// barrier lines homed on its nodes. Every interaction that crosses a
// node boundary — check-in requests, flag reads, release invalidations
// (the wake-up IPIs), and predictor queries — travels as an explicit
// message, with lookahead equal to the NoC's minimum cross-node latency.
//
// Barrier count and flag lines are home-resident: every access is a
// request/reply with the line's home node. The flat barrier's lock
// serialization is modeled at the home, which grants the count line when
// the previous holder's release notification lands, so a sleeping
// (gated) waiter can never strand a hot line in a powered-down cache.
// Waiters learn whether the flag flipped from the reply to a real flag
// read, and a barrier's BIT predictor lives on the flag's home node,
// queried by message. Per-thread state — BRTS, the cut-off's disabled
// PCs, and the DVFS and direct-BST predictors — lives on the thread's
// node. Results are therefore identical across shard counts by
// construction: every event's time and payload derives from messages,
// never from cross-region state.
//
// The machine is single-use: construct, Run once, read the result.
type ParallelMachine struct {
	arch  Arch
	opts  Options
	topo  Topology
	model *power.Model

	regionNodes int
	regionCount int

	net       *noc.Network    // global fabric: barrier + IPI traffic
	place     *dram.Placement // global placement: barrier line homes
	lookahead sim.Cycles
	detectRT  sim.Cycles

	nodes   []*pnode
	regions []*pregion

	prog    Program
	pcs     map[uint64]*pcMeta
	nextPC  uint64
	record  bool
	shards  int
	eng     *sim.Engine
	pe      *sim.ParallelEngine
	shardOf []int
	used    bool
}

// pcMeta is the per-static-barrier layout: line addresses, the flag's
// home node, and the check-in fabric.
type pcMeta struct {
	countAddr uint64
	flagAddr  uint64
	flagHome  int
	shape     pShape
}

// pnode is one CPU's shard-owned state.
type pnode struct {
	id  int
	seq uint32 // per-node event counter; the order-key source
	cpu *cpu.CPU

	brts   sim.Cycles
	finish sim.Cycles

	pendStart sim.Cycles // arrival time at the current barrier
	w         pwaiter    // the current (or, once departed, last) wait

	forbidden map[uint64]bool // §3.3.3 cut-off: prediction disabled per PC; nil until the first

	// bst is the per-(PC, thread) time predictor of the two per-thread
	// features: DVFS's compute-time predictor, or the direct-BST
	// ablation's stall predictor. bits is DVFS's copy of the BIT table,
	// fed the BIT each departure carries; no release of a PC can fall
	// between this node's departure from it and its next arrival, so it
	// predicts what the flag home's table would. Both are nil when unused.
	bst  *predict.BSTTable
	bits *predict.Table

	// Record capture (SetRecording).
	arriveAt []sim.Cycles
	departAt []sim.Cycles
	waits    []ThreadWait
}

// pregion is one NoC region: the shard-owned simulation slice.
type pregion struct {
	id    int
	proto *coherence.Protocol
	table *predict.Table // BIT entries for PCs whose flag homes here

	counts map[ckey]*pcount
	flags  map[uint64]*pflag
	// releases[k] is phase k's release as its root counter's home saw it,
	// for root counters homed here; filled only while recording.
	releases []pRelease

	stats Stats
}

// pRelease is one phase's releaser, its timestamp and the BIT it measured.
type pRelease struct {
	thread int
	at     sim.Cycles
	bit    sim.Cycles
}

// ckey identifies one combining counter homed in a region.
type ckey struct {
	pc    uint64
	level int
	group int
}

// pcount is the home-side state of one combining counter: the analytic
// lock-release time and the check-in tally of the episode it serves. A
// counter serves one episode at a time: its release needs every check-in,
// and nobody checks into the barrier's next episode before the release.
type pcount struct {
	lockFree sim.Cycles
	tally    int
}

// pflag is the home-side state of one barrier flag line. byPhase holds the
// live episodes, at most two: the last released one, lastRelease, and the
// next. Every episode before lastRelease has been dropped.
type pflag struct {
	sharers     nodeset
	byPhase     map[int]*pflagEp
	lastRelease int
}

// pflagEp is one dynamic episode as the flag's home sees it.
type pflagEp struct {
	released  bool
	releaseAt sim.Cycles
	bit       sim.Cycles
	oracles   []pReg
	yields    []pReg
}

// pReg is a deferred-resolution registration (oracle or yield waiter).
type pReg struct {
	thread  int
	readyAt sim.Cycles
}

// pwaiter is a thread's in-flight wait. Each node reuses one across its
// waits; gen numbers them, and messages sent for a wait carry its gen, so
// a reply that outlives its wait is recognised and dropped.
type pwaiter struct {
	gen     int32
	phase   int
	pc      uint64
	kind    waitKind
	readyAt sim.Cycles

	state         power.SleepState
	gated         bool
	sleeping      bool
	sleepStart    sim.Cycles
	predictedWake sim.Cycles
	timer         sim.Handle
	timerArmed    bool
	externalLive  bool
	woken         bool
	wokeReady     sim.Cycles

	firedAt     sim.Cycles // when the timer (or watchdog) fired
	spinFrom    sim.Cycles // last completed flag read (spin detection point)
	armed       bool       // first spin read completed
	spinThenArm bool       // arm reply should schedule the spin-then-sleep threshold
	pendingWake bool       // release delivery raced an in-flight flag read
	resolving   bool       // release-triggered re-read issued
	departed    bool
	converting  bool // spin-then-sleep conversion in progress
}

// flag-read purposes: how the reply is interpreted.
type readPurpose uint8

const (
	readArm         readPurpose = iota // first spin read (registers the sharer)
	readPreSleep                       // controller read before transitioning in
	readVerifyTimer                    // post-internal-wake verification
	readVerifyIPI                      // post-external-wake verification
	readResolve                        // release detected; final re-read
)

// nodeset is a machine-wide node bitset (the flag sharer vector).
type nodeset []uint64

func (s nodeset) add(n int) { s[n/64] |= 1 << uint(n%64) }
func (s nodeset) clear() {
	for i := range s {
		s[i] = 0
	}
}
func (s nodeset) forEach(f func(int)) {
	for i, w := range s {
		for v := w; v != 0; v &= v - 1 {
			f(64*i + bits.TrailingZeros64(v))
		}
	}
}

// NewParallelMachine assembles the machine, reporting configuration
// problems as errors.
func NewParallelMachine(arch Arch, opts Options) (*ParallelMachine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if arch.Nodes != arch.Coherence.Nodes || arch.Nodes != arch.NoC.Nodes {
		return nil, fmt.Errorf("core: inconsistent node counts %d/%d/%d", arch.Nodes, arch.Coherence.Nodes, arch.NoC.Nodes)
	}
	if arch.Nodes <= 0 || arch.Nodes&(arch.Nodes-1) != 0 {
		return nil, fmt.Errorf("core: node count %d not a power of two", arch.Nodes)
	}
	rn := arch.regionNodes()
	if rn&(rn-1) != 0 || arch.Nodes%rn != 0 {
		return nil, fmt.Errorf("core: region size %d must be a power of two dividing %d nodes", rn, arch.Nodes)
	}
	topo := opts.effectiveTopology()

	var model *power.Model
	if len(opts.States) > 0 {
		model = power.NewModel(power.DefaultUnitEnergies(), opts.States)
	} else {
		model = power.NewModel(power.DefaultUnitEnergies(), power.Table3())
	}
	net := noc.New(arch.NoC)
	place := dram.NewPlacement(arch.Nodes, arch.PageBytes)

	m := &ParallelMachine{
		arch:        arch,
		opts:        opts,
		topo:        topo,
		model:       model,
		regionNodes: rn,
		regionCount: arch.Nodes / rn,
		net:         net,
		place:       place,
		lookahead:   net.MinLatency(arch.Coherence.CtrlBytes),
		detectRT:    net.MaxLatency(arch.Coherence.DataBytes),
		nodes:       make([]*pnode, arch.Nodes),
		regions:     make([]*pregion, arch.Nodes/rn),
		pcs:         make(map[uint64]*pcMeta),
		nextPC:      barrierBase,
	}

	// Each region gets its own protocol instance over rn nodes. Regions
	// are contiguous aligned blocks, so local id = global & (rn-1): the
	// region's private-page placement (node bits in the address) and its
	// hypercube sub-topology both survive the renaming, because the low
	// log2(rn) address/node bits are exactly the in-region coordinates.
	rcfg := arch.Coherence
	rcfg.Nodes = rn
	rnoc := arch.NoC
	rnoc.Nodes = rn
	for r := range m.regions {
		rnet := noc.New(rnoc)
		rplace := dram.NewPlacement(rn, arch.PageBytes)
		m.regions[r] = &pregion{
			id:     r,
			proto:  coherence.New(rcfg, rnet, rplace),
			table:  predict.NewTable(opts.Predictor),
			counts: make(map[ckey]*pcount),
			flags:  make(map[uint64]*pflag),
		}
		m.regions[r].stats.Sleeps = make(map[string]int)
	}
	// The nodes and their CPUs live in two slabs, so a machine costs a
	// number of allocations that grows with its regions, not its nodes.
	pnodes, cpus := make([]pnode, arch.Nodes), make([]cpu.CPU, arch.Nodes)
	for t := range m.nodes {
		cpus[t] = cpu.Make(t&(rn-1), arch.CPU, m.regions[t/rn].proto, model, arch.Activity)
		nd := &pnodes[t]
		*nd = pnode{
			id:  t,
			cpu: &cpus[t],
			w:   pwaiter{departed: true}, // no wait in progress
		}
		if opts.DVFS || opts.BSTDirect {
			nd.bst = predict.NewBSTTable()
		}
		if opts.DVFS {
			nd.bits = predict.NewTable(opts.Predictor)
		}
		m.nodes[t] = nd
	}
	return m, nil
}

// Simulate runs prog on a fresh machine on the sequential engine and
// returns its result, with episode records when record is set. It panics
// on a configuration NewParallelMachine rejects: its callers run fixed
// experiment tables, never user input.
func Simulate(arch Arch, opts Options, prog Program, record bool) Result {
	m, err := NewParallelMachine(arch, opts)
	if err != nil {
		panic(err)
	}
	m.SetRecording(record)
	return m.Run(prog, 0).Result
}

// SetRecording enables per-episode records.
func (m *ParallelMachine) SetRecording(on bool) { m.record = on }

// Topology reports the effective check-in topology.
func (m *ParallelMachine) Topology() Topology { return m.topo }

// Lookahead reports the conservative window width (tests).
func (m *ParallelMachine) Lookahead() sim.Cycles { return m.lookahead }

func (m *ParallelMachine) region(node int) *pregion { return m.regions[node/m.regionNodes] }
func (m *ParallelMachine) local(node int) int       { return node & (m.regionNodes - 1) }

// meta returns (allocating on first use) the layout of a static barrier.
// Allocation order is the program phase scan in Run, so it is identical
// for every shard count.
func (m *ParallelMachine) meta(pc uint64) *pcMeta {
	if mt, ok := m.pcs[pc]; ok {
		return mt
	}
	count := m.nextPC
	flag := count + flagOffset
	m.nextPC += barrierStride
	mt := &pcMeta{
		countAddr: count,
		flagAddr:  flag,
		flagHome:  m.place.Home(flag),
		shape:     buildShape(m.topo, m.opts.TreeArity, m.arch.Nodes, m.regionNodes, count, flag, m.place),
	}
	m.pcs[pc] = mt
	return mt
}

// orderKey mints the next simulation-state-derived order key for a node:
// unique machine-wide, identical across shard counts, so the stable
// (when, order) merge executes events in the same sequence everywhere.
func (m *ParallelMachine) orderKey(node int) uint64 {
	nd := m.nodes[node]
	nd.seq++
	return uint64(node)<<32 | uint64(nd.seq)
}

// Message kinds. Every event of the machine is a sim.Msg of one of these
// kinds, addressed to the machine's handler; A is the node the message
// is about (the thread t), B its phase k, and C, for messages sent on
// behalf of a wait, the wait's gen. The other operands are listed per
// kind.
const (
	msgStart         uint8 = iota // start phase at T0
	msgArrive                     // arrive at the barrier at T0
	msgCheckin                    // home: check into level C, group D, arriving T0, BRTS T1
	msgCheckinReply               // level C, group D granted at T0; BIT T1, BRTS T2
	msgQuery                      // home: BIT query sent T0, arriving T1
	msgQueryReply                 // query sent T0, answered T1 with BIT T2
	msgFlagRead                   // home: flag read for purpose D, sent T0, arriving T1
	msgFlagReadReply              // flag read for purpose D, sent T0, answered T1; BIT T2, released T3
	msgSpinThenSleep              // the spin-then-sleep window ends at T0
	msgTimerWake                  // the sleep timer (or watchdog) fires at T0
	msgRegister                   // home: oracle/yield waiter ready T0, arriving T1
	msgRelease                    // home: the releaser's flag write sent T0, arriving T1; BIT T2
	msgReleaseAck                 // the releaser's write completes at T0; sent T1, BIT T2
	msgDelivery                   // release invalidation lands at T0; BIT T1
	msgOracleResolve              // oracle waiter ready T0, released T1, departs T2; BIT T3
	msgYieldResume                // yield waiter ready T0 resumes at T1; BIT T2
)

// Message flags.
const (
	flagLastOfGroup uint8 = 1 << iota // check-in reply: the group's last arrival
	flagRootLast                      // check-in reply: the barrier's last arrival
	flagPredicted                     // query reply: the predictor had an entry
	flagFlipped                       // query or flag-read reply: the flag was released
	flagOracle                        // register: an oracle waiter, not a yield one
	flagRecovery                      // timer wake: the watchdog, not the predicted timer
)

func flagIf(cond bool, f uint8) uint8 {
	if cond {
		return f
	}
	return 0
}

// handler is the sim.Handler every event of the machine is scheduled
// with: a converted *ParallelMachine, so scheduling allocates nothing.
type handler ParallelMachine

// Fire dispatches one message by kind.
func (h *handler) Fire(msg sim.Msg) {
	m := (*ParallelMachine)(h)
	t, k := int(msg.A), int(msg.B)
	switch msg.Kind {
	case msgStart:
		m.startPhase(t, k, msg.T0)
	case msgArrive:
		m.arrive(t, k, msg.T0)
	case msgCheckin:
		m.homeCheckin(t, k, int(msg.C), int(msg.D), msg.T0, msg.T1)
	case msgCheckinReply:
		m.checkinReply(t, k, int(msg.C), int(msg.D), msg.T0,
			msg.Flags&flagLastOfGroup != 0, msg.Flags&flagRootLast != 0, msg.T1, msg.T2)
	case msgQuery:
		m.homeQuery(t, k, msg.C, msg.T0, msg.T1)
	case msgQueryReply:
		if w := m.waiter(t, msg.C); w != nil {
			m.queryReply(t, k, w, msg.T0, msg.T1, msg.T2, msg.Flags&flagPredicted != 0, msg.Flags&flagFlipped != 0)
		}
	case msgFlagRead:
		m.homeFlagRead(t, k, msg.C, readPurpose(msg.D), msg.T0, msg.T1)
	case msgFlagReadReply:
		if w := m.waiter(t, msg.C); w != nil {
			m.flagReadReply(t, k, w, readPurpose(msg.D), msg.T0, msg.T1, msg.Flags&flagFlipped != 0, msg.T2, msg.T3)
		}
	case msgSpinThenSleep:
		if w := m.waiter(t, msg.C); w != nil {
			m.spinThenSleepConvert(t, k, w, msg.T0)
		}
	case msgTimerWake:
		if w := m.waiter(t, msg.C); w != nil {
			m.internalWake(t, k, w, msg.T0, msg.Flags&flagRecovery != 0)
		}
	case msgRegister:
		m.homeRegister(t, k, msg.T0, msg.T1, msg.Flags&flagOracle != 0)
	case msgRelease:
		m.homeRelease(t, k, msg.T0, msg.T1, msg.T2)
	case msgReleaseAck:
		m.nodes[t].cpu.ChargeCompute(msg.T0 - msg.T1)
		m.depart(t, k, nil, msg.T0, msg.T2)
	case msgDelivery:
		m.delivery(t, k, msg.T0, msg.T1)
	case msgOracleResolve:
		m.oracleResolve(t, k, msg.T0, msg.T1, msg.T2, msg.T3)
	case msgYieldResume:
		m.yieldResume(t, k, msg.T0, msg.T1, msg.T2)
	default:
		panic(fmt.Sprintf("core: unknown message kind %d", msg.Kind))
	}
}

// waiter returns t's wait numbered gen, or nil once that wait has
// departed: a reply to a finished wait is dropped.
func (m *ParallelMachine) waiter(t int, gen int32) *pwaiter {
	w := &m.nodes[t].w
	if w.gen != gen || w.departed {
		return nil
	}
	return w
}

// at schedules msg on node's own shard (a local continuation or timer).
func (m *ParallelMachine) at(node int, when sim.Cycles, msg sim.Msg) sim.Handle {
	o := m.orderKey(node)
	if m.eng != nil {
		return m.eng.AtMsg(when, o, (*handler)(m), msg)
	}
	return m.pe.Shard(m.shardOf[node]).AtMsg(when, o, (*handler)(m), msg)
}

// send routes a message: msg fires at `when` on to's shard. The order
// key is minted from the sending node, whose shard is running the
// current event.
func (m *ParallelMachine) send(from, to int, when sim.Cycles, msg sim.Msg) {
	o := m.orderKey(from)
	if m.eng != nil {
		m.eng.AtMsg(when, o, (*handler)(m), msg)
		return
	}
	sf, st := m.shardOf[from], m.shardOf[to]
	if sf == st {
		m.pe.Shard(sf).AtMsg(when, o, (*handler)(m), msg)
		return
	}
	m.pe.Shard(sf).PostMsg(st, when, o, (*handler)(m), msg)
}

func (m *ParallelMachine) cancel(node int, h sim.Handle) {
	if m.eng != nil {
		m.eng.Cancel(h)
		return
	}
	m.pe.Shard(m.shardOf[node]).Cancel(h)
}

// Run executes prog and returns the result. shards <= 0 selects the
// plain sequential engine (the golden reference); otherwise the machine
// runs on sim.ParallelEngine with min(shards, regions) shards, regions
// mapped whole onto shards. Results are identical either way.
func (m *ParallelMachine) Run(prog Program, shards int) ParallelResult {
	if m.used {
		panic("core: ParallelMachine is single-use")
	}
	m.used = true
	if prog.Phases() == 0 {
		return ParallelResult{}
	}
	m.prog = prog
	// Fix the barrier address map (and with it every home node and DRAM
	// row) by scanning phases in program order, not first-arrival order.
	for k := 0; k < prog.Phases(); k++ {
		m.meta(prog.Phase(k).PC)
	}
	if m.record {
		for _, nd := range m.nodes {
			nd.arriveAt = make([]sim.Cycles, prog.Phases())
			nd.departAt = make([]sim.Cycles, prog.Phases())
			nd.waits = make([]ThreadWait, prog.Phases())
		}
		for _, rg := range m.regions {
			rg.releases = make([]pRelease, prog.Phases())
		}
	}

	if shards <= 0 {
		m.shards = 1
		m.eng = sim.NewEngine()
	} else {
		if shards > m.regionCount {
			shards = m.regionCount
		}
		m.shards = shards
		m.pe = sim.NewParallelEngine(shards, m.lookahead)
		m.shardOf = make([]int, m.arch.Nodes)
		for n := range m.shardOf {
			m.shardOf[n] = (n / m.regionNodes) * shards / m.regionCount
		}
	}

	for t := 0; t < m.arch.Nodes; t++ {
		m.at(t, 0, sim.Msg{Kind: msgStart, A: int32(t)})
	}
	if m.eng != nil {
		m.eng.Run()
	} else {
		m.pe.Run()
	}
	return m.collect()
}

// ParallelResult extends Result with the per-CPU vectors the scaling
// study digests and the event count the benches normalize by.
type ParallelResult struct {
	Result
	// PerCPUEnergy is each CPU's total energy in joules; PerCPUSpin its
	// spin-state residency. Both feed the FNV digests that pin
	// bit-identity across shard counts.
	PerCPUEnergy []float64
	PerCPUSpin   []sim.Cycles
	// Events is the number of simulation events executed.
	Events uint64
	// Shards is the shard count actually used (0 collapsed to 1).
	Shards int
}

func (m *ParallelMachine) collect() ParallelResult {
	var span sim.Cycles
	timelines := make([]*sim.Timeline, m.arch.Nodes)
	res := ParallelResult{
		PerCPUEnergy: make([]float64, m.arch.Nodes),
		PerCPUSpin:   make([]sim.Cycles, m.arch.Nodes),
		Shards:       m.shards,
	}
	for t, nd := range m.nodes {
		timelines[t] = nd.cpu.Timeline()
		if nd.finish > span {
			span = nd.finish
		}
		res.PerCPUEnergy[t] = timelines[t].TotalEnergy()
		res.PerCPUSpin[t] = timelines[t].Time(sim.StateSpin)
		res.Events += uint64(nd.seq)
	}

	stats := Stats{Sleeps: make(map[string]int)}
	for _, rg := range m.regions {
		stats.accumulate(&rg.stats)
		hits, misses, _, skipped, _ := rg.table.Stats()
		stats.PredictorHits += hits
		stats.PredictorMisses += misses
		stats.SkippedUpdates += skipped
	}
	for _, nd := range m.nodes {
		if nd.bits != nil {
			// DVFS's lookups; its updates repeat the home's per node.
			hits, misses, _, _, _ := nd.bits.Stats()
			stats.PredictorHits += hits
			stats.PredictorMisses += misses
		}
	}

	res.Result = Result{
		Breakdown: energy.Collect(timelines, span),
		Span:      span,
		Stats:     stats,
	}
	if m.record {
		res.Result.Episodes = m.assembleRecords()
	}
	return res
}

// accumulate merges another region's counters into s.
func (s *Stats) accumulate(o *Stats) {
	s.Episodes += o.Episodes
	s.Spins += o.Spins
	s.Yields += o.Yields
	for k, v := range o.Sleeps {
		s.Sleeps[k] += v
	}
	s.EarlyWakes += o.EarlyWakes
	s.ExternalWakes += o.ExternalWakes
	s.LateWakes += o.LateWakes
	s.Disables += o.Disables
	s.DVFSScaled += o.DVFSScaled
	s.DVFSFreqSum += o.DVFSFreqSum
	s.FlushLines += o.FlushLines
	s.OracleSleeps += o.OracleSleeps
	s.DroppedWakeups += o.DroppedWakeups
	s.TimerFailures += o.TimerFailures
	s.DriftedTimers += o.DriftedTimers
	s.Recoveries += o.Recoveries
	s.InjectedPreempts += o.InjectedPreempts
	s.InjectedStalls += o.InjectedStalls
}

// assembleRecords builds the EpisodeRecords from the per-node capture
// plus the releases the root counters' homes saw.
func (m *ParallelMachine) assembleRecords() []EpisodeRecord {
	out := make([]EpisodeRecord, 0, m.prog.Phases())
	for k := 0; k < m.prog.Phases(); k++ {
		pc := m.prog.Phase(k).PC
		shape := m.pcs[pc].shape
		rel := m.region(shape.levels[len(shape.levels)-1].groups[0].home).releases[k]
		rec := EpisodeRecord{
			Phase:     k,
			PC:        pc,
			ReleaseAt: rel.at,
			BIT:       rel.bit,
			Arrive:    make([]sim.Cycles, m.arch.Nodes),
			Depart:    make([]sim.Cycles, m.arch.Nodes),
			Waits:     make([]ThreadWait, m.arch.Nodes),
		}
		rec.Waits[rel.thread] = ThreadWait{Kind: "release"}
		for t, nd := range m.nodes {
			rec.Arrive[t] = nd.arriveAt[k]
			rec.Depart[t] = nd.departAt[k]
			if nd.waits[k].Kind != "" {
				rec.Waits[t] = nd.waits[k]
			}
		}
		out = append(out, rec)
	}
	return out
}

// ---------------------------------------------------------------------
// Compute and arrival.

func (m *ParallelMachine) startPhase(t, k int, at sim.Cycles) {
	nd := m.nodes[t]
	if k >= m.prog.Phases() {
		nd.finish = at
		return
	}
	spec := m.prog.Phase(k)
	var dur sim.Cycles
	if m.opts.DVFS {
		dur = m.runSegmentDVFS(nd, at, spec)
	} else {
		dur = nd.cpu.RunSegment(at, spec.Segment(t))
	}
	if spec.PreemptThread == t && spec.PreemptDelay > 0 {
		nd.cpu.ChargeCompute(spec.PreemptDelay)
		dur += spec.PreemptDelay
	}
	if d, ok := m.opts.Faults.PreemptAt(k, t); ok {
		nd.cpu.ChargeCompute(d)
		dur += d
		m.region(t).stats.InjectedPreempts++
	}
	if d, ok := m.opts.Faults.StallAt(k, t); ok {
		nd.cpu.ChargeCompute(d)
		dur += d
		m.region(t).stats.InjectedStalls++
	}
	arrive := at + dur
	m.at(t, arrive, sim.Msg{Kind: msgArrive, A: int32(t), B: int32(k), T0: arrive})
}

// runSegmentDVFS picks a frequency from the predicted slack — the BIT
// prediction says when the barrier will release, the compute predictor
// how much work lies ahead — runs the segment scaled, and trains the
// compute predictor on the f=1-equivalent duration.
func (m *ParallelMachine) runSegmentDVFS(nd *pnode, at sim.Cycles, spec PhaseSpec) sim.Cycles {
	f := 1.0
	var budget sim.Cycles
	if predC, ok := nd.bst.Predict(spec.PC, nd.id); ok && predC > 0 {
		if bit, ok := nd.bits.Predict(spec.PC); ok {
			available := float64(nd.brts+bit-at) * m.opts.DVFSMargin
			if available > float64(predC) {
				f = max(float64(predC)/available, m.opts.DVFSMinFreq)
				budget = predC // ramp to nominal past the predicted work
			}
		}
	}
	dur, baseEquiv := nd.cpu.RunSegmentDVFS(at, spec.Segment(nd.id), f, budget)
	nd.bst.Update(spec.PC, nd.id, baseEquiv)
	rg := m.region(nd.id)
	if f < 1 {
		rg.stats.DVFSScaled++
	}
	rg.stats.DVFSFreqSum += f
	return dur
}

func (m *ParallelMachine) arrive(t, k int, now sim.Cycles) {
	nd := m.nodes[t]
	nd.pendStart = now
	mt := m.meta(m.prog.Phase(k).PC)
	g := t / mt.shape.levels[0].radix
	m.checkinSend(t, k, 0, g, now, nd.brts)
}

// checkinSend issues the check-in request for (level, group): an L2 miss
// to the counter's home node.
func (m *ParallelMachine) checkinSend(t, k, level, group int, dep sim.Cycles, brts sim.Cycles) {
	mt := m.meta(m.prog.Phase(k).PC)
	g := mt.shape.levels[level].groups[group]
	arr := dep + m.arch.Coherence.L2Hit + m.net.Latency(t, g.home, m.arch.Coherence.CtrlBytes)
	m.send(t, g.home, arr, sim.Msg{Kind: msgCheckin, A: int32(t), B: int32(k), C: int32(level), D: int32(group), T0: arr, T1: brts})
}

// homeCheckin serializes one check-in at the counter's home: the home
// grants the line when the previous holder's release notification lands
// (the flat barrier's O(N·RTT) lock convoy, preserved analytically),
// performs the RMW against its DRAM bank, and replies with the grant.
func (m *ParallelMachine) homeCheckin(t, k, level, group int, arr sim.Cycles, brts sim.Cycles) {
	pc := m.prog.Phase(k).PC
	mt := m.meta(pc)
	g := mt.shape.levels[level].groups[group]
	rg := m.region(g.home)
	ch := m.arch.Coherence

	key := ckey{pc: pc, level: level, group: group}
	c := rg.counts[key]
	if c == nil {
		c = &pcount{}
		rg.counts[key] = c
	}
	start := arr
	if c.lockFree > start {
		start = c.lockFree
	}
	svc := start + ch.DirLookup + rg.proto.Memory(m.local(g.home)).Access(g.line) + ch.Bus
	grant := svc + m.net.Latency(g.home, t, ch.DataBytes)
	done := grant + m.opts.CheckinCost
	// The next check-in may be granted once this holder's release
	// notification returns to the home.
	c.lockFree = done + m.net.Latency(t, g.home, ch.CtrlBytes)

	c.tally++
	lastOfGroup := c.tally == g.size
	if lastOfGroup {
		c.tally = 0
	}
	rootLast := lastOfGroup && level == len(mt.shape.levels)-1
	var bit sim.Cycles
	if rootLast {
		// The completing thread is the releaser; BIT_b = its local
		// check-in completion minus its BRTS_{b-1} (§3.2.1). done is
		// also the timestamp its release carries.
		bit = done - brts
		rg.stats.Episodes++
		if m.record {
			rg.releases[k] = pRelease{thread: t, at: done, bit: bit}
		}
	}
	m.send(g.home, t, grant, sim.Msg{Kind: msgCheckinReply, A: int32(t), B: int32(k), C: int32(level), D: int32(group),
		Flags: flagIf(lastOfGroup, flagLastOfGroup) | flagIf(rootLast, flagRootLast), T0: grant, T1: bit, T2: brts})
}

func (m *ParallelMachine) checkinReply(t, k, level, group int, grant sim.Cycles, lastOfGroup, rootLast bool, bit, brts sim.Cycles) {
	nd := m.nodes[t]
	done := grant + m.opts.CheckinCost
	mt := m.meta(m.prog.Phase(k).PC)
	if lastOfGroup && !rootLast {
		// Climb: the group's last arrival checks into the parent level.
		parent := group / mt.shape.levels[level+1].radix
		m.checkinSend(t, k, level+1, parent, done, brts)
		return
	}
	// Lock wait and the count RMW(s) are Compute ("other stalls such as
	// memory or locks fall into this category", §5.2).
	nd.cpu.ChargeCompute(done - nd.pendStart)
	if m.record {
		nd.arriveAt[k] = done
	}
	if rootLast {
		m.releaseSend(t, k, done, bit)
		return
	}
	m.wait(t, k, done)
}

// ---------------------------------------------------------------------
// Waiting: the sleep()-library decision, message-accurate.

func (m *ParallelMachine) wait(t, k int, ready sim.Cycles) {
	nd := m.nodes[t]
	pc := m.prog.Phase(k).PC
	w := &nd.w
	*w = pwaiter{gen: w.gen + 1, phase: k, pc: pc, kind: waitSpin, readyAt: ready}

	if m.opts.YieldReschedule > 0 {
		w.kind = waitYield
		m.region(t).stats.Yields++
		m.registerSend(t, k, ready, false)
		return
	}
	if len(m.opts.States) == 0 {
		m.spinArm(t, k, w, ready)
		return
	}
	if m.opts.Oracle {
		w.kind = waitOracle
		m.registerSend(t, k, ready, true)
		return
	}
	if m.opts.Unconditional {
		m.goToSleep(t, k, w, m.opts.States[0], ready, sim.MaxCycles)
		return
	}
	if m.opts.SpinThenSleep > 0 {
		w.spinThenArm = true
		m.spinArm(t, k, w, ready)
		return
	}

	// The sleep() library call: charge the decision, then predict. The
	// BIT table lives on the flag's home node, so prediction is a
	// request/reply — its round trip rides on the decision path, which
	// is the honest cost of distributing the predictor.
	nd.cpu.ChargeCompute(m.opts.DecisionCost)
	ready += m.opts.DecisionCost
	w.readyAt = ready
	if m.opts.BSTDirect {
		// Ablation strawman: the stall itself, predicted per (PC, thread)
		// on this node; no query and no cut-off.
		stall, ok := nd.bst.Predict(pc, t)
		if !ok {
			m.spinArm(t, k, w, ready)
			return
		}
		m.sleepOrSpin(t, k, w, ready, ready+stall)
		return
	}
	if nd.forbidden[pc] {
		// Cut-off disabled prediction for this (barrier, thread): spin.
		m.spinArm(t, k, w, ready)
		return
	}
	m.querySend(t, k, w, ready)
}

// querySend asks the flag home for this barrier's BIT prediction.
func (m *ParallelMachine) querySend(t, k int, w *pwaiter, ready sim.Cycles) {
	h := m.meta(w.pc).flagHome
	ch := m.arch.Coherence
	arr := ready + ch.L2Hit + m.net.Latency(t, h, ch.CtrlBytes)
	m.send(t, h, arr, sim.Msg{Kind: msgQuery, A: int32(t), B: int32(k), C: w.gen, T0: ready, T1: arr})
}

// homeQuery answers a BIT query at the flag home: the prediction, or the
// release itself when the flag has already flipped.
func (m *ParallelMachine) homeQuery(t, k int, gen int32, ready, arr sim.Cycles) {
	pc := m.prog.Phase(k).PC
	h := m.meta(pc).flagHome
	ch := m.arch.Coherence
	rg := m.region(h)
	svc := arr + ch.DirLookup
	rr := svc + m.net.Latency(h, t, ch.CtrlBytes)
	reply := sim.Msg{Kind: msgQueryReply, A: int32(t), B: int32(k), C: gen, T0: ready, T1: rr}
	if ep := m.flagEp(rg, pc, k); ep.released {
		reply.Flags, reply.T2 = flagFlipped, ep.bit
	} else {
		bit, ok := rg.table.Predict(pc)
		reply.Flags, reply.T2 = flagIf(ok, flagPredicted), bit
	}
	m.send(h, t, rr, reply)
}

// queryReply acts on the prediction: bit is the predicted BIT when ok, or
// the release's BIT when released.
func (m *ParallelMachine) queryReply(t, k int, w *pwaiter, sent, rr sim.Cycles, bit sim.Cycles, ok, released bool) {
	nd := m.nodes[t]
	// The query round trip is library execution: Compute, like the
	// decision cost it extends.
	nd.cpu.ChargeCompute(rr - sent)
	w.readyAt = rr
	if released {
		// Raced the release while deciding: the reply itself reports the
		// flip, so the thread departs without ever waiting.
		w.wokeReady = rr
		m.depart(t, k, w, rr, bit)
		return
	}
	if !ok {
		m.spinArm(t, k, w, rr)
		return
	}
	m.sleepOrSpin(t, k, w, rr, nd.brts+bit)
}

// sleepOrSpin picks the deepest sleep state whose round trip (and flush)
// fits the predicted stall up to predictedWake, or spins when none does.
func (m *ParallelMachine) sleepOrSpin(t, k int, w *pwaiter, at, predictedWake sim.Cycles) {
	stall := predictedWake - at
	if stall <= 0 {
		m.spinArm(t, k, w, at)
		return
	}
	flushEst := sim.Cycles(0)
	if !m.opts.NoFlush {
		lines := m.region(t).proto.DirtyLines(m.local(t))
		flushEst = sim.Cycles(lines)*m.arch.Coherence.Bus + m.detectRT
	}
	fit := m.model.BestFit(stall, flushEst)
	if !fit.OK {
		m.spinArm(t, k, w, at)
		return
	}
	m.goToSleep(t, k, w, fit.State, at, predictedWake)
}

// spinArm registers w as a conventional spinner: a real flag read that
// records the node as a sharer, so the release invalidation reaches it.
func (m *ParallelMachine) spinArm(t, k int, w *pwaiter, at sim.Cycles) {
	w.kind = waitSpin
	m.region(t).stats.Spins++
	m.flagReadSend(t, k, w, readArm, at)
}

// flagReadSend issues a flag-line read to its home.
func (m *ParallelMachine) flagReadSend(t, k int, w *pwaiter, purpose readPurpose, at sim.Cycles) {
	h := m.meta(w.pc).flagHome
	ch := m.arch.Coherence
	arr := at + ch.L2Hit + m.net.Latency(t, h, ch.CtrlBytes)
	m.send(t, h, arr, sim.Msg{Kind: msgFlagRead, A: int32(t), B: int32(k), C: w.gen, D: int32(purpose), T0: at, T1: arr})
}

// homeFlagRead services a flag read at its home. The reply carries the
// home's view at service time: flipped or not, and, when flipped, the
// release's BIT and the releaser's timestamp.
func (m *ParallelMachine) homeFlagRead(t, k int, gen int32, purpose readPurpose, at, arr sim.Cycles) {
	pc := m.prog.Phase(k).PC
	mt := m.meta(pc)
	h := mt.flagHome
	ch := m.arch.Coherence
	rg := m.region(h)
	ep := m.flagEp(rg, pc, k)
	svc := arr + ch.DirLookup + rg.proto.Memory(m.local(h)).Access(mt.flagAddr) + ch.Bus
	rr := svc + m.net.Latency(h, t, ch.DataBytes)
	if !ep.released {
		m.flagFor(rg, pc).sharers.add(t)
	}
	m.send(h, t, rr, sim.Msg{Kind: msgFlagReadReply, A: int32(t), B: int32(k), C: gen, D: int32(purpose),
		Flags: flagIf(ep.released, flagFlipped), T0: at, T1: rr, T2: ep.bit, T3: ep.releaseAt})
}

func (m *ParallelMachine) flagReadReply(t, k int, w *pwaiter, purpose readPurpose, sent, rr sim.Cycles, flipped bool, bit, releaseAt sim.Cycles) {
	nd := m.nodes[t]
	rg := m.region(t)
	lat := rr - sent

	switch purpose {
	case readArm:
		nd.cpu.ChargeSpin(lat)
		if flipped {
			m.depart(t, k, w, rr, bit)
			return
		}
		w.spinFrom = rr
		w.armed = true
		if w.spinThenArm {
			w.spinThenArm = false
			threshold := rr + m.opts.SpinThenSleep
			m.at(t, threshold, sim.Msg{Kind: msgSpinThenSleep, A: int32(t), B: int32(k), C: w.gen, T0: threshold})
		}
		if w.pendingWake && !w.resolving {
			// The release delivery beat this reply; re-read to depart.
			w.resolving = true
			m.flagReadSend(t, k, w, readResolve, rr)
		}

	case readPreSleep:
		// The controller's read before transitioning in (§3.3.1) is part
		// of the library call: Compute.
		nd.cpu.ChargeCompute(lat)
		if flipped {
			w.gated = false
			w.wokeReady = rr
			m.depart(t, k, w, rr, bit)
			return
		}
		m.enterSleep(t, k, w, rr)

	case readVerifyTimer:
		nd.cpu.ChargeSpin(lat)
		if flipped {
			// Late only if the timer fired at or after the release
			// (§3.3.2); one that fired before it woke early and found the
			// flag flipped while the CPU came up.
			if w.firedAt >= releaseAt {
				rg.stats.LateWakes++
			} else {
				rg.stats.EarlyWakes++
			}
			m.depart(t, k, w, rr, bit)
			return
		}
		rg.stats.EarlyWakes++
		w.kind = waitResidualSpin
		w.spinFrom = rr
		w.armed = true
		if w.pendingWake && !w.resolving {
			w.resolving = true
			m.flagReadSend(t, k, w, readResolve, rr)
		}

	case readVerifyIPI:
		// Wake-up IPIs are sent only by homeRelease, after the flag flipped.
		nd.cpu.ChargeSpin(lat)
		m.depart(t, k, w, rr, bit)

	case readResolve:
		from := w.spinFrom
		dep := rr
		if dep < from {
			dep = from
		}
		nd.cpu.ChargeSpin(dep - from)
		if !flipped {
			panic(fmt.Sprintf("core: thread %d phase %d: resolve read found the flag unflipped, "+
				"but it is issued only after the release's invalidation landed", t, k))
		}
		m.depart(t, k, w, dep, bit)
	}
}

// spinThenSleepConvert turns a §5.1 spin-then-sleep spinner into an
// externally-woken sleeper once the spin window expires.
func (m *ParallelMachine) spinThenSleepConvert(t, k int, w *pwaiter, threshold sim.Cycles) {
	if w.pendingWake || w.resolving {
		// Release in flight: stay a spinner.
		return
	}
	nd := m.nodes[t]
	nd.cpu.ChargeSpin(threshold - w.spinFrom)
	w.readyAt = threshold
	m.region(t).stats.Spins--
	m.goToSleep(t, k, w, m.opts.States[0], threshold, sim.MaxCycles)
}

// ---------------------------------------------------------------------
// Sleeping.

func (m *ParallelMachine) goToSleep(t, k int, w *pwaiter, st power.SleepState, ready, predictedWake sim.Cycles) {
	nd := m.nodes[t]
	w.kind = waitSleep
	w.state = st
	w.predictedWake = predictedWake

	if st.Gated() && !m.opts.NoFlush {
		lines, flushLat := m.region(t).proto.FlushForSleep(m.local(t))
		nd.cpu.ChargeCompute(flushLat)
		ready += flushLat
		m.region(t).stats.FlushLines += lines
		w.gated = true
	}
	// The controller reads in the flag (§3.3.1); the reply either aborts
	// the sleep (already flipped) or completes the entry.
	m.flagReadSend(t, k, w, readPreSleep, ready)
}

// enterSleep completes the transition after the pre-sleep read came back
// unflipped.
func (m *ParallelMachine) enterSleep(t, k int, w *pwaiter, ready sim.Cycles) {
	nd := m.nodes[t]
	rg := m.region(t)
	st := w.state
	if w.gated {
		rg.proto.SetGated(m.local(t), true)
	}
	nd.cpu.ChargeTransition(st, st.Transition)
	w.sleepStart = ready + st.Transition
	w.sleeping = true
	rg.stats.Sleeps[st.Name]++

	internalLive := false
	if m.opts.Wakeup == WakeupHybrid || m.opts.Wakeup == WakeupExternal {
		if m.opts.Faults.DropWakeupAt(k, t) {
			rg.stats.DroppedWakeups++
		} else {
			w.externalLive = true
		}
	}
	if w.predictedWake != sim.MaxCycles &&
		(m.opts.Wakeup == WakeupHybrid || m.opts.Wakeup == WakeupInternal) {
		if m.opts.Faults.TimerFailsAt(k, t) {
			rg.stats.TimerFailures++
		} else {
			internalLive = true
			wake := w.predictedWake - st.Transition
			if d := m.opts.Faults.TimerDriftAt(k, t); d > 0 {
				wake += d
				rg.stats.DriftedTimers++
			}
			if wake < w.sleepStart {
				wake = w.sleepStart
			}
			w.timer = m.at(t, wake, sim.Msg{Kind: msgTimerWake, A: int32(t), B: int32(k), C: w.gen, T0: wake})
			w.timerArmed = true
		}
	}
	if !w.externalLive && !internalLive {
		// Every wake-up channel is gone (§3.3's "unbounded" case): the
		// OS watchdog revives the sleeper after the recovery timeout.
		at := w.sleepStart + m.opts.Faults.RecoveryTimeout()
		w.timer = m.at(t, at, sim.Msg{Kind: msgTimerWake, A: int32(t), B: int32(k), C: w.gen, Flags: flagRecovery, T0: at})
		w.timerArmed = true
	}
	if w.pendingWake && w.externalLive {
		// The release invalidation arrived during the entry transition:
		// zero residency, exit immediately.
		m.externalWake(t, k, w, w.sleepStart)
	}
}

func (m *ParallelMachine) internalWake(t, k int, w *pwaiter, now sim.Cycles, recovery bool) {
	if w.woken {
		return
	}
	nd := m.nodes[t]
	rg := m.region(t)
	if recovery {
		rg.stats.Recoveries++
	}
	w.woken = true
	w.firedAt = now
	w.timerArmed = false
	w.timer = sim.Handle{}
	w.externalLive = false // ignore a late release delivery; the verify read decides
	m.chargeSleepUntil(nd, w, now)
	nd.cpu.ChargeTransition(w.state, w.state.Transition)
	up := now + w.state.Transition
	if w.gated {
		rg.proto.SetGated(m.local(t), false)
		w.gated = false
	}
	w.wokeReady = up
	// Early or late is decided by the verify read's reply: late wake-ups
	// see the flipped flag and depart; early ones residual-spin.
	m.flagReadSend(t, k, w, readVerifyTimer, up)
}

func (m *ParallelMachine) externalWake(t, k int, w *pwaiter, at sim.Cycles) {
	if w.departed || w.woken {
		return
	}
	nd := m.nodes[t]
	rg := m.region(t)
	w.woken = true
	if w.timerArmed {
		m.cancel(t, w.timer)
		w.timerArmed = false
		w.timer = sim.Handle{}
	}
	if at < w.sleepStart {
		at = w.sleepStart
	}
	m.chargeSleepUntil(nd, w, at)
	nd.cpu.ChargeTransition(w.state, w.state.Transition)
	up := at + w.state.Transition
	if w.gated {
		rg.proto.SetGated(m.local(t), false)
		w.gated = false
	}
	w.wokeReady = up
	rg.stats.ExternalWakes++
	m.flagReadSend(t, k, w, readVerifyIPI, up)
}

func (m *ParallelMachine) chargeSleepUntil(nd *pnode, w *pwaiter, until sim.Cycles) {
	if until > w.sleepStart {
		nd.cpu.ChargeSleep(w.state, until-w.sleepStart)
	}
}

// ---------------------------------------------------------------------
// Release and resolution.

// registerSend registers an oracle (oracle=true) or yield waiter with
// the flag home, which resolves it at release time.
func (m *ParallelMachine) registerSend(t, k int, readyAt sim.Cycles, oracle bool) {
	h := m.meta(m.prog.Phase(k).PC).flagHome
	arr := readyAt + m.net.Latency(t, h, m.arch.Coherence.CtrlBytes)
	m.send(t, h, arr, sim.Msg{Kind: msgRegister, A: int32(t), B: int32(k), Flags: flagIf(oracle, flagOracle), T0: readyAt, T1: arr})
}

// homeRegister records an oracle or yield registration at the flag home,
// or resolves it at once when it raced the release.
func (m *ParallelMachine) homeRegister(t, k int, readyAt, arr sim.Cycles, oracle bool) {
	pc := m.prog.Phase(k).PC
	h := m.meta(pc).flagHome
	rg := m.region(h)
	ep := m.flagEp(rg, pc, k)
	r := pReg{thread: t, readyAt: readyAt}
	switch {
	case ep.released && oracle:
		m.resolveOracleAt(rg, h, pc, k, ep, r, arr)
	case ep.released:
		m.resolveYieldAt(h, k, ep, r, arr)
	case oracle:
		ep.oracles = append(ep.oracles, r)
	default:
		ep.yields = append(ep.yields, r)
	}
}

// releaseSend is the last thread's flag write: reset count, flip the
// flag at its home, carrying the measured BIT.
func (m *ParallelMachine) releaseSend(t, k int, done sim.Cycles, bit sim.Cycles) {
	mt := m.meta(m.prog.Phase(k).PC)
	h := mt.flagHome
	ch := m.arch.Coherence
	arr := done + ch.L2Hit + m.net.Latency(t, h, ch.CtrlBytes)
	m.send(t, h, arr, sim.Msg{Kind: msgRelease, A: int32(t), B: int32(k), T0: done, T1: arr, T2: bit})
}

// homeRelease commits the release at the flag home: update the predictor
// (it lives here), write the line, invalidate every sharer — those
// invalidations are the wake-up IPIs — resolve registered oracle/yield
// waiters, and ack the releaser once all invalidation acks are in.
func (m *ParallelMachine) homeRelease(t, k int, sent, arr sim.Cycles, bit sim.Cycles) {
	pc := m.prog.Phase(k).PC
	mt := m.meta(pc)
	h := mt.flagHome
	rg := m.region(h)
	ch := m.arch.Coherence

	if len(m.opts.States) > 0 && !m.opts.Oracle {
		rg.table.Update(pc, bit)
	}
	f := m.flagFor(rg, pc)
	ep := m.flagEp(rg, pc, k)
	// Every waiter of the last released episode departed before anyone
	// could check into this one, so no request for it can arrive again.
	if f.lastRelease < k {
		delete(f.byPhase, f.lastRelease)
	}
	f.lastRelease = k
	R := arr + ch.DirLookup + rg.proto.Memory(m.local(h)).Access(mt.flagAddr) + ch.Bus
	ep.released = true
	ep.releaseAt = sent // the releaser's timestamp, which BIT measures to
	ep.bit = bit

	var ackMax sim.Cycles
	f.sharers.forEach(func(s int) {
		if s == t {
			return
		}
		inv := R + m.net.Latency(h, s, ch.CtrlBytes)
		ack := (inv - R) + m.net.Latency(s, t, ch.CtrlBytes)
		if ack > ackMax {
			ackMax = ack
		}
		m.send(h, s, inv, sim.Msg{Kind: msgDelivery, A: int32(s), B: int32(k), T0: inv, T1: bit})
	})
	f.sharers.clear()

	for _, r := range ep.oracles {
		m.resolveOracleAt(rg, h, pc, k, ep, r, R)
	}
	ep.oracles = nil
	for _, r := range ep.yields {
		m.resolveYieldAt(h, k, ep, r, R)
	}
	ep.yields = nil

	// The releaser's write completes when its data reply and the last
	// invalidation ack are both in.
	lat := m.net.Latency(h, t, ch.DataBytes)
	if ackMax > lat {
		lat = ackMax
	}
	ra := R + lat
	m.send(h, t, ra, sim.Msg{Kind: msgReleaseAck, A: int32(t), B: int32(k), T0: ra, T1: sent, T2: bit})
}

// delivery is the release invalidation (wake-up IPI) landing at node s.
func (m *ParallelMachine) delivery(s, k int, inv sim.Cycles, bit sim.Cycles) {
	w := &m.nodes[s].w
	if w.phase != k || w.departed {
		return
	}
	switch w.kind {
	case waitSpin, waitResidualSpin:
		if !w.armed {
			// The arm read's reply is still in flight; it will trigger
			// the resolve when it lands.
			w.pendingWake = true
			return
		}
		if !w.resolving {
			w.resolving = true
			m.flagReadSend(s, k, w, readResolve, inv)
		}
	case waitSleep:
		if w.woken {
			// The post-wake verify read may already have been serviced
			// before this release committed; note the signal so its
			// reply re-reads instead of stranding a residual spinner.
			w.pendingWake = true
			return
		}
		if !w.sleeping {
			// Pre-sleep read in flight: note the signal; enterSleep
			// handles the zero-residency exit.
			w.pendingWake = true
			return
		}
		if w.externalLive {
			m.externalWake(s, k, w, inv)
		}
		// Internal-only sleeper: the timer (or watchdog) resolves it.
	case waitOracle, waitYield:
		// Resolved via home registration; never flag sharers.
	}
}

// resolveOracleAt settles an oracle waiter analytically at release time
// R: with perfect BIT prediction the thread sleeps exactly when worthwhile
// and is executing again at the release (§5.1's Oracle-Halt and Ideal);
// the post-release flag fetch is priced from the home side.
func (m *ParallelMachine) resolveOracleAt(rg *pregion, h int, pc uint64, k int, ep *pflagEp, r pReg, R sim.Cycles) {
	mt := m.meta(pc)
	ch := m.arch.Coherence
	s := r.thread
	// The woken thread's flag fetch: request to home, serviced, data back.
	fetch := ch.L2Hit + m.net.Latency(s, h, ch.CtrlBytes) + ch.DirLookup +
		rg.proto.Memory(m.local(h)).Access(mt.flagAddr) + ch.Bus + m.net.Latency(h, s, ch.DataBytes)
	dep := R + fetch
	m.send(h, s, dep, sim.Msg{Kind: msgOracleResolve, A: int32(s), B: int32(k), T0: r.readyAt, T1: R, T2: dep, T3: ep.bit})
}

func (m *ParallelMachine) oracleResolve(t, k int, readyAt, R, dep sim.Cycles, bit sim.Cycles) {
	nd := m.nodes[t]
	w := &nd.w
	if w.phase != k || w.departed {
		return
	}
	rg := m.region(t)
	stall := R - readyAt
	if stall < 0 {
		stall = 0
	}
	fit := m.model.BestFit(stall, 0)
	if fit.OK {
		st := fit.State
		nd.cpu.ChargeTransition(st, st.Transition)
		nd.cpu.ChargeSleep(st, stall-2*st.Transition)
		nd.cpu.ChargeTransition(st, st.Transition)
		nd.cpu.ChargeSpin(dep - R)
		w.state = st
		w.wokeReady = R
		rg.stats.OracleSleeps++
		rg.stats.Sleeps[st.Name]++
	} else {
		nd.cpu.ChargeSpin(dep - readyAt)
		rg.stats.Spins++
	}
	m.depart(t, k, w, dep, bit)
}

// resolveYieldAt settles a §3.4.1 time-sharing waiter: the thread
// resumes a scheduling delay after the release. The notification is a
// message, so the resume can never undercut the IPI latency.
func (m *ParallelMachine) resolveYieldAt(h, k int, ep *pflagEp, r pReg, R sim.Cycles) {
	s := r.thread
	delay := m.opts.YieldReschedule
	if ipi := m.net.Latency(h, s, m.arch.Coherence.CtrlBytes); ipi > delay {
		delay = ipi
	}
	dep := R + delay
	m.send(h, s, dep, sim.Msg{Kind: msgYieldResume, A: int32(s), B: int32(k), T0: r.readyAt, T1: dep, T2: ep.bit})
}

func (m *ParallelMachine) yieldResume(t, k int, readyAt, dep sim.Cycles, bit sim.Cycles) {
	nd := m.nodes[t]
	w := &nd.w
	if w.phase != k || w.departed {
		return
	}
	nd.cpu.ChargeCompute(dep - readyAt)
	m.depart(t, k, w, dep, bit)
}

// ---------------------------------------------------------------------
// Departure.

// depart ends t's wait w at dep; w is nil for the releaser, which never
// waited.
func (m *ParallelMachine) depart(t, k int, w *pwaiter, dep sim.Cycles, bit sim.Cycles) {
	nd := m.nodes[t]
	if w != nil {
		if w.departed {
			return
		}
		w.departed = true
		if w.timerArmed {
			m.cancel(t, w.timer)
			w.timerArmed = false
			w.timer = sim.Handle{}
		}
	}
	// BRTS_b = BRTS_{b-1} + BIT_b (§3.2.1).
	nd.brts += bit

	if w != nil && w.kind == waitSleep && !m.opts.Oracle && m.opts.Cutoff > 0 && bit > 0 {
		penalty := w.wokeReady - nd.brts
		if float64(penalty) > m.opts.Cutoff*float64(bit) {
			if nd.forbidden == nil {
				nd.forbidden = make(map[uint64]bool)
			}
			nd.forbidden[w.pc] = true
			m.region(t).stats.Disables++
		}
	}
	if m.opts.BSTDirect && w != nil && nd.brts >= w.readyAt {
		// The direct-BST strawman learns the observed stall. A spinner
		// that became ready only after the release never stalled.
		nd.bst.Update(w.pc, t, nd.brts-w.readyAt)
	}
	if nd.bits != nil {
		nd.bits.Update(m.prog.Phase(k).PC, bit)
	}

	if m.record {
		nd.departAt[k] = dep
		if w != nil {
			tw := ThreadWait{Kind: w.kind.label()}
			if w.kind == waitSleep || (w.kind == waitOracle && w.state.Transition > 0) ||
				(w.kind == waitResidualSpin && w.state.Transition > 0) {
				tw.State = w.state.Name
			}
			nd.waits[k] = tw
		}
	}
	m.startPhase(t, k+1, dep)
}

// ---------------------------------------------------------------------
// Home-side lookup helpers.

func (m *ParallelMachine) flagFor(rg *pregion, pc uint64) *pflag {
	f := rg.flags[pc]
	if f == nil {
		f = &pflag{
			sharers: make(nodeset, (m.arch.Nodes+63)/64),
			byPhase: make(map[int]*pflagEp),
		}
		rg.flags[pc] = f
	}
	return f
}

func (m *ParallelMachine) flagEp(rg *pregion, pc uint64, k int) *pflagEp {
	f := m.flagFor(rg, pc)
	if k < f.lastRelease {
		panic(fmt.Sprintf("core: request for flag %#x episode %d, dropped at the release of episode %d", pc, k, f.lastRelease))
	}
	ep := f.byPhase[k]
	if ep == nil {
		ep = &pflagEp{}
		f.byPhase[k] = ep
	}
	return ep
}
