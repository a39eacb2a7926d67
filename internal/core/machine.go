package core

import (
	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/energy"
	"thriftybarrier/internal/mem/coherence"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/power"
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
	// RegionNodes is the NoC region size: nodes are partitioned into
	// Nodes/RegionNodes contiguous regions, each with its own directory
	// slice and cache models, mapped whole onto engine shards. Zero (or a
	// size past Nodes) means one region spanning the machine: the paper's
	// single directory, run on one shard.
	RegionNodes int
}

// Regions returns the region count implied by RegionNodes (resolving the
// zero default to one region).
func (a Arch) Regions() int {
	return a.Nodes / a.regionNodes()
}

func (a Arch) regionNodes() int {
	if a.RegionNodes == 0 || a.RegionNodes > a.Nodes {
		return a.Nodes
	}
	return a.RegionNodes
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
// a power of two ≤ 1024).
func (a Arch) WithNodes(n int) Arch {
	a.Nodes = n
	a.Coherence.Nodes = n
	a.NoC.Nodes = n
	return a
}

// barrierLine spacing: each static barrier gets a count page and a flag
// page, flagOffset bytes apart, in a dedicated shared region.
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
	waitResidualSpin // woke early; spinning until release
	waitOracle       // resolved analytically at release
	waitYield        // §3.4.1 time-sharing: CPU yielded to other work
)

// Stats aggregates run-level mechanism counters.
type Stats struct {
	Episodes        int
	Spins           int            // early threads that spun conventionally
	Yields          int            // early threads that yielded (TimeShare policy)
	Sleeps          map[string]int // sleeps per state name
	EarlyWakes      int            // internal timer fired before the release
	ExternalWakes   int            // invalidation-triggered wakes
	LateWakes       int            // internal timer fired at or after the release
	Disables        int            // cut-off disables issued
	DVFSScaled      int            // phases run below nominal frequency
	DVFSFreqSum     float64
	FlushLines      int // lines written back before gated sleeps
	OracleSleeps    int
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
	// Waits describes how each thread waited (Kind "release" for the
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
