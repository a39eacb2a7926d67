// Package mp extends the thrifty barrier to message-passing machines — the
// first of the two future-work directions named in the paper's conclusion
// ("extending this concept to other parallel computing environments, such
// as message-passing systems").
//
// The modeled machine is a cluster of N single-CPU nodes on the same
// hypercube interconnect as the shared-memory system, with no cache
// coherence: barriers are a NIC-combined reduction tree up and a broadcast
// down. The mapping of the paper's mechanisms:
//
//   - The combining/forwarding of arrival messages happens in the NIC
//     (in-network collectives), just as the cache controller handles
//     coherence while the CPU sleeps: a dormant CPU never has to forward.
//   - External wake-up: the arrival of the release broadcast at a node's
//     NIC (the analogue of the barrier-flag invalidation).
//   - Internal wake-up: a NIC timer armed with the predicted stall. A node
//     learns of the release only when the completion message reaches its
//     NIC, so whether a timer wake-up was early or late is decided there,
//     never from the root's state.
//   - BIT bookkeeping: the root measures BIT between its own release
//     instants and carries it in the broadcast payload, so every node
//     reconstructs its local release timestamp without a global clock —
//     the same §3.2.1 induction, with the message replacing the shared
//     BIT variable.
//
// Power uses the same calibrated model and Table 3 sleep states; there are
// no caches to flush, so deep states carry no flush cost here (their NICs
// buffer like the cache controller buffers clean invalidations).
//
// Machine.RunParallel is the one way to run a program: every inter-rank
// interaction is a message event on the conservative parallel engine, and
// the result is bit-identical at every shard count.
package mp

import (
	"fmt"

	"thriftybarrier/internal/energy"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/predict"
	"thriftybarrier/internal/sim"
)

// Algorithm selects the collective used by the barrier.
type Algorithm int

const (
	// TreeBarrier is a Fanout-ary NIC-combined reduction tree plus a
	// broadcast down — the default.
	TreeBarrier Algorithm = iota
	// DisseminationBarrier is the classic log2(N)-round dissemination
	// algorithm, run autonomously by the NICs: each round r, rank i's NIC
	// signals rank (i+2^r) mod N and waits for rank (i-2^r) mod N. All
	// NICs complete within one message latency of each other — no
	// broadcast skew down a tree — at the cost of N·log N messages.
	DisseminationBarrier
)

func (a Algorithm) String() string {
	switch a {
	case TreeBarrier:
		return "tree"
	case DisseminationBarrier:
		return "dissemination"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config describes the message-passing machine.
type Config struct {
	// Nodes is the cluster size (power of two, for the hypercube).
	Nodes int
	// Algorithm selects the barrier collective.
	Algorithm Algorithm
	// Fanout is the combining-tree arity (TreeBarrier only).
	Fanout int
	// NoC is the interconnect model (Table 1 parameters by default).
	NoC noc.Config
	// Combine is the NIC latency to fold one child arrival into the local
	// reduction state.
	Combine sim.Cycles
	// NICWake is the NIC-to-CPU wake signal latency.
	NICWake sim.Cycles
	// MsgBytes sizes barrier control messages.
	MsgBytes int
	// IPC converts program instruction counts into time.
	IPC float64
}

// DefaultConfig is a 64-node cluster mirroring Table 1's interconnect.
func DefaultConfig() Config {
	return Config{
		Nodes:    64,
		Fanout:   4,
		NoC:      noc.DefaultConfig(),
		Combine:  20 * sim.Nanosecond,
		NICWake:  40 * sim.Nanosecond,
		MsgBytes: 16,
		IPC:      2.0,
	}
}

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes&(c.Nodes-1) != 0 {
		return fmt.Errorf("mp: node count %d not a positive power of two", c.Nodes)
	}
	if c.Algorithm == TreeBarrier && c.Fanout < 2 {
		return fmt.Errorf("mp: fanout %d < 2", c.Fanout)
	}
	if c.Algorithm != TreeBarrier && c.Algorithm != DisseminationBarrier {
		return fmt.Errorf("mp: unknown algorithm %d", int(c.Algorithm))
	}
	if c.NoC.Nodes != c.Nodes {
		return fmt.Errorf("mp: NoC size %d != nodes %d", c.NoC.Nodes, c.Nodes)
	}
	if err := c.NoC.Validate(); err != nil {
		return err
	}
	if c.Combine < 0 || c.NICWake < 0 || c.MsgBytes <= 0 || c.IPC <= 0 {
		return fmt.Errorf("mp: invalid NIC/CPU parameters in %+v", c)
	}
	return nil
}

// Phase is one dynamic barrier instance of an SPMD message-passing
// program: per-rank compute work followed by a barrier at a static PC.
type Phase struct {
	PC uint64
	// Work returns rank's compute duration for this instance.
	Work func(rank int) sim.Cycles
}

// Program is a sequence of phases common to all ranks.
type Program []Phase

// Options selects the barrier strategy.
type Options struct {
	// Name labels the configuration.
	Name string
	// States is the sleep-state catalogue; empty means spin-polling
	// (Baseline).
	States []power.SleepState
	// Oracle uses perfect stall knowledge (the bound).
	Oracle bool
	// Cutoff is the §3.3.3 overprediction threshold (fraction of BIT).
	Cutoff float64
	// Predictor configures the BIT table.
	Predictor predict.Config
}

// Baseline spin-polls the NIC.
func Baseline() Options {
	return Options{Name: "MP-Baseline", Predictor: predict.DefaultConfig()}
}

// Thrifty predicts stalls and sleeps with hybrid wake-up.
func Thrifty() Options {
	return Options{
		Name:      "MP-Thrifty",
		States:    power.Table3(),
		Cutoff:    0.10,
		Predictor: predict.DefaultConfig(),
	}
}

// Oracle is Thrifty with perfect prediction.
func Oracle() Options {
	o := Thrifty()
	o.Name = "MP-Oracle"
	o.Oracle = true
	return o
}

// Result is the outcome of one run.
type Result struct {
	Breakdown energy.Breakdown
	Span      sim.Cycles
	Stats     Stats
}

// Stats counts mechanism events.
type Stats struct {
	Episodes      int
	Spins         int
	Sleeps        map[string]int
	EarlyWakes    int
	ExternalWakes int
	LateWakes     int
	Disables      int
}

// Machine is the simulated cluster: its configuration and the immutable
// topology every run shares. All run state lives in the run itself (see
// RunParallel), so one Machine can serve any number of runs.
type Machine struct {
	cfg   Config
	opts  Options
	net   *noc.Network
	model *power.Model

	parent   []int
	children [][]int
	depthLat []sim.Cycles // root-to-rank broadcast latency
}

// NewMachine assembles a cluster. Invalid configuration is reported as an
// error (not a panic) so that cmd front-ends can route it to their usual
// flag-validation exit path.
func NewMachine(cfg Config, opts Options) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Predictor.Validate(); err != nil {
		return nil, err
	}
	var model *power.Model
	if len(opts.States) > 0 {
		model = power.NewModel(power.DefaultUnitEnergies(), opts.States)
	} else {
		model = power.NewModel(power.DefaultUnitEnergies(), power.Table3())
	}
	m := &Machine{
		cfg:   cfg,
		opts:  opts,
		net:   noc.New(cfg.NoC),
		model: model,
	}
	m.buildTree()
	return m, nil
}

// MustNewMachine is NewMachine for tests and examples: it panics on invalid
// configuration instead of returning an error.
func MustNewMachine(cfg Config, opts Options) *Machine {
	m, err := NewMachine(cfg, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// buildTree lays the Fanout-ary combining tree over ranks 0..N-1 (rank 0
// is the root) and precomputes broadcast latencies down the tree.
func (m *Machine) buildTree() {
	n := m.cfg.Nodes
	m.parent = make([]int, n)
	m.children = make([][]int, n)
	m.depthLat = make([]sim.Cycles, n)
	m.parent[0] = -1
	for r := 1; r < n; r++ {
		p := (r - 1) / m.cfg.Fanout
		m.parent[r] = p
		m.children[p] = append(m.children[p], r)
	}
	// Broadcast latency accumulates hop by hop down the tree.
	var walk func(r int, lat sim.Cycles)
	walk = func(r int, lat sim.Cycles) {
		m.depthLat[r] = lat
		for _, c := range m.children[r] {
			walk(c, lat+m.net.Latency(r, c, m.cfg.MsgBytes)+m.cfg.Combine)
		}
	}
	walk(0, 0)
}
