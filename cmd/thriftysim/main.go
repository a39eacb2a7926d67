// Command thriftysim runs one (application, configuration) pair on the
// simulated CC-NUMA machine and prints the energy/time breakdown and the
// mechanism statistics — the single-experiment companion to thriftybench.
//
// Usage:
//
//	thriftysim -app FMM -config Thrifty
//	thriftysim -app Ocean -config Thrifty -cutoff 0 -wakeup internal
//	thriftysim -trace mytrace.csv -config Thrifty
//	thriftysim -scaling 1024 -alg tree -radix 8 -j 8
//	thriftysim -list
//
// -scaling N leaves the 64-CPU shared-memory machine behind and runs the
// message-passing cluster at N nodes on the conservative parallel event
// engine (-j shards; the result is shard-count-invariant), printing the
// thrifty-vs-baseline comparison for one collective.
//
// A trace file replays measured per-thread barrier-phase durations (CSV:
// "pc,dur0us,dur1us,..."; see internal/workload.ParseTrace) through the
// simulator, estimating what the thrifty barrier would save on a real
// application
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/energy"
	"thriftybarrier/internal/fault"
	"thriftybarrier/internal/harness"
	"thriftybarrier/internal/mp"
	"thriftybarrier/internal/sim"
	"thriftybarrier/internal/trace"
	"thriftybarrier/internal/workload"
)

func main() {
	var (
		app      = flag.String("app", "FMM", "application name (see -list)")
		config   = flag.String("config", "Thrifty", "Baseline|Thrifty-Halt|Oracle-Halt|Thrifty|Ideal")
		nodes    = flag.Int("nodes", 64, "machine size (power of two <= 64)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		cutoff   = flag.Float64("cutoff", -1, "override overprediction cut-off (fraction of BIT; 0 disables)")
		wakeup   = flag.String("wakeup", "", "override wake-up mechanism: hybrid|external|internal")
		faultStr = flag.String("fault", "", "inject faults, e.g. drop=0.2,timerfail=0.1,drift=200us,driftrate=0.5 (see internal/fault)")
		traceCSV = flag.String("trace", "", "replay a measured barrier trace (CSV) instead of a synthetic app")
		chrome   = flag.String("chrometrace", "", "write a Chrome Trace Event JSON timeline of the run to this file")
		jsonOut  = flag.String("json", "", "write the run's machine-readable result (JSON) to this file, or - for stdout")
		list     = flag.Bool("list", false, "list applications and exit")
		verbose  = flag.Bool("v", false, "also print per-static-barrier episode summary")

		scaling = flag.Int("scaling", 0, "run the message-passing cluster at this node count on the parallel engine and exit")
		alg     = flag.String("alg", "tree", "barrier collective for -scaling: tree|dissemination")
		radix   = flag.Int("radix", 0, "combining-tree radix for -scaling (0 = config default)")
		jobs    = flag.Int("j", 0, "shard count for -scaling/-core-scaling (0 = GOMAXPROCS; 1 = the sequential reference engine)")

		coreScaling = flag.Int("core-scaling", 0, "run the sharded CC-NUMA core machine at this CPU count and exit")
		topology    = flag.String("topology", "flat", "check-in fabric highlighted by -core-scaling: flat|tree|noctree")
	)
	flag.Parse()

	if *list {
		for _, s := range workload.All() {
			fmt.Printf("%-10s imbalance(paper)=%5.2f%%  phases=%d  %s\n",
				s.Name, s.TargetImbalance*100, s.Phases(), s.ProblemSize)
		}
		return
	}

	if *scaling > 0 && *coreScaling > 0 {
		usage("-scaling and -core-scaling are mutually exclusive")
	}
	if *scaling > 0 {
		runScaling(*scaling, *alg, *radix, *jobs, *seed)
		return
	}
	if *coreScaling > 0 {
		runCoreScaling(*coreScaling, *topology, *jobs, *seed)
		return
	}

	// Validate enumerated flags up front: a typo exits immediately with a
	// usage diagnostic instead of silently misconfiguring a long run.
	var opts core.Options
	var names []string
	found := false
	for _, o := range core.Configurations() {
		names = append(names, o.Name)
		if o.Name == *config {
			opts, found = o, true
		}
	}
	if !found {
		usage("unknown -config %q (want %s)", *config, strings.Join(names, "|"))
	}
	if *traceCSV == "" && (*nodes < 1 || *nodes > 64 || *nodes&(*nodes-1) != 0) {
		usage("bad -nodes %d (want a power of two <= 64)", *nodes)
	}
	if *cutoff >= 0 {
		opts.Cutoff = *cutoff
	}
	switch *wakeup {
	case "":
	case "hybrid":
		opts.Wakeup = core.WakeupHybrid
	case "external":
		opts.Wakeup = core.WakeupExternal
	case "internal":
		opts.Wakeup = core.WakeupInternal
	default:
		usage("unknown -wakeup %q (want hybrid|external|internal)", *wakeup)
	}
	plan, err := fault.Parse(*faultStr)
	if err != nil {
		usage("bad -fault spec: %v", err)
	}
	if plan != nil {
		if plan.Seed == 0 {
			plan.Seed = *seed
		}
		opts.Faults = plan
	}

	var prog core.SliceProgram
	var name string
	if *traceCSV != "" {
		f, err := os.Open(*traceCSV)
		if err != nil {
			fatal(err)
		}
		phases, err := workload.ParseTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		th := workload.TraceThreads(phases)
		if th&(th-1) != 0 || th > 64 {
			fatal(fmt.Errorf("trace has %d threads; the machine needs a power of two <= 64", th))
		}
		*nodes = th
		arch := core.DefaultArch().WithNodes(th)
		prog, err = workload.BuildTrace(phases, arch.CPU.IPC)
		if err != nil {
			fatal(err)
		}
		name = *traceCSV
	} else {
		spec, ok := workload.ByName(*app)
		if !ok {
			usage("unknown -app %q (use -list)", *app)
		}
		prog = spec.Build(*nodes, *seed)
		name = spec.Name
	}
	arch := core.DefaultArch().WithNodes(*nodes)

	base := core.Simulate(arch, core.Baseline(), prog, false)
	res := core.Simulate(arch, opts, prog, *verbose || *chrome != "")
	if *chrome != "" {
		data, err := trace.ChromeTrace(res.Episodes, opts.Name)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*chrome, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", *chrome)
	}
	n := res.Breakdown.Normalize(base.Breakdown)

	if *jsonOut != "" {
		// Episode records can run to megabytes when recording is on; the
		// result JSON carries the aggregates only.
		baseCopy, resCopy := base, res
		baseCopy.Episodes, resCopy.Episodes = nil, nil
		out := struct {
			App        string            `json:"app"`
			Config     string            `json:"config"`
			Nodes      int               `json:"nodes"`
			Seed       uint64            `json:"seed"`
			Baseline   core.Result       `json:"baseline"`
			Run        core.Result       `json:"run"`
			Normalized energy.Normalized `json:"normalized"`
		}{name, opts.Name, arch.Nodes, *seed, baseCopy, resCopy, n}
		b, err := harness.MarshalArtifact(out)
		if err != nil {
			fatal(err)
		}
		if *jsonOut == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("%s on %d nodes, %s (seed %d)\n", name, arch.Nodes, opts.Name, *seed)
	fmt.Printf("  baseline: span=%v energy=%.4fJ imbalance=%.2f%%\n",
		base.Span, base.Breakdown.TotalEnergy(), base.Breakdown.SpinFraction()*100)
	fmt.Printf("  this run: span=%v energy=%.4fJ\n", res.Span, res.Breakdown.TotalEnergy())
	fmt.Printf("  normalized energy: %6.2f%%  [Compute %.2f%% Spin %.2f%% Transition %.2f%% Sleep %.2f%%]\n",
		n.TotalEnergy()*100,
		n.Energy[sim.StateCompute]*100, n.Energy[sim.StateSpin]*100,
		n.Energy[sim.StateTransition]*100, n.Energy[sim.StateSleep]*100)
	fmt.Printf("  normalized time:   %6.2f%%  (span ratio %.4f)\n", n.TotalTime()*100, n.SpanRatio)
	fmt.Printf("  episodes=%d spins=%d sleeps=%v\n", res.Stats.Episodes, res.Stats.Spins, res.Stats.Sleeps)
	fmt.Printf("  wakes: early=%d external=%d late=%d; disables=%d flushedLines=%d\n",
		res.Stats.EarlyWakes, res.Stats.ExternalWakes, res.Stats.LateWakes,
		res.Stats.Disables, res.Stats.FlushLines)
	fmt.Printf("  predictor: hits=%d misses=%d skippedUpdates=%d\n",
		res.Stats.PredictorHits, res.Stats.PredictorMisses, res.Stats.SkippedUpdates)
	if opts.Faults.Active() {
		fmt.Printf("  faults (%s): dropped=%d timerFail=%d drifted=%d recoveries=%d preempts=%d stalls=%d\n",
			opts.Faults, res.Stats.DroppedWakeups, res.Stats.TimerFailures,
			res.Stats.DriftedTimers, res.Stats.Recoveries,
			res.Stats.InjectedPreempts, res.Stats.InjectedStalls)
	}

	if *verbose {
		type agg struct {
			pc    uint64
			n     int
			sum   sim.Cycles
			min   sim.Cycles
			max   sim.Cycles
			stall sim.Cycles
		}
		perPC := map[uint64]*agg{}
		for _, ep := range res.Episodes {
			a := perPC[ep.PC]
			if a == nil {
				a = &agg{pc: ep.PC, min: sim.MaxCycles}
				perPC[ep.PC] = a
			}
			a.n++
			a.sum += ep.BIT
			if ep.BIT < a.min {
				a.min = ep.BIT
			}
			if ep.BIT > a.max {
				a.max = ep.BIT
			}
			for t := range ep.Arrive {
				a.stall += ep.Depart[t] - ep.Arrive[t]
			}
		}
		var keys []uint64
		for pc := range perPC {
			keys = append(keys, pc)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		fmt.Println("  per-static-barrier BIT [instances, mean, min, max, mean per-thread stall]:")
		for _, pc := range keys {
			a := perPC[pc]
			fmt.Printf("    pc=%#x n=%3d mean=%v min=%v max=%v stall=%v\n",
				a.pc, a.n, a.sum/sim.Cycles(a.n), a.min, a.max,
				a.stall/sim.Cycles(a.n*len(res.Episodes[0].Arrive)))
		}
	}
}

// runScaling runs one collective of the many-core scaling study — the
// message-passing machine on the conservative parallel event engine —
// and prints the thrifty-vs-baseline comparison. Impossible flag
// combinations (a non-power-of-two size, a radix of 1) surface as
// mp.NewMachine errors and exit 2 through the usage path, the same
// contract as every other flag here.
func runScaling(nodes int, alg string, radix, jobs int, seed uint64) {
	cfg := mp.DefaultConfig()
	cfg.Nodes = nodes
	cfg.NoC.Nodes = nodes
	switch alg {
	case "tree":
		cfg.Algorithm = mp.TreeBarrier
	case "dissemination":
		cfg.Algorithm = mp.DisseminationBarrier
	default:
		usage("unknown -alg %q (want tree|dissemination)", alg)
	}
	if radix != 0 {
		cfg.Fanout = radix
	}
	shards := jobs
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}

	// NewMachine validates the whole configuration; this is the one place
	// a user can assemble an impossible mp.Config from the command line.
	baseM, err := mp.NewMachine(cfg, mp.Baseline())
	if err != nil {
		usage("bad -scaling configuration: %v", err)
	}
	thriftyM, err := mp.NewMachine(cfg, mp.Thrifty())
	if err != nil {
		usage("bad -scaling configuration: %v", err)
	}

	const phases = 24
	prog := harness.ScalingProgram(seed, nodes, phases)
	base := baseM.RunParallel(prog, shards)
	res := thriftyM.RunParallel(prog, shards)
	n := res.Breakdown.Normalize(base.Breakdown)

	label := alg
	if cfg.Algorithm == mp.TreeBarrier {
		label = fmt.Sprintf("tree r=%d", cfg.Fanout)
	}
	fmt.Printf("scaling: %d nodes, %s, %d phases, %d shards (seed %d)\n",
		nodes, label, phases, shards, seed)
	fmt.Printf("  baseline: span=%v energy=%.4fJ round=%v\n",
		base.Span, base.Breakdown.TotalEnergy(), base.MeanRoundLatency())
	fmt.Printf("  thrifty:  span=%v energy=%.4fJ round=%v\n",
		res.Span, res.Breakdown.TotalEnergy(), res.MeanRoundLatency())
	fmt.Printf("  normalized energy: %6.2f%%  [Compute %.2f%% Spin %.2f%% Transition %.2f%% Sleep %.2f%%]\n",
		n.TotalEnergy()*100,
		n.Energy[sim.StateCompute]*100, n.Energy[sim.StateSpin]*100,
		n.Energy[sim.StateTransition]*100, n.Energy[sim.StateSleep]*100)
	fmt.Printf("  normalized time:   %6.2f%%  (span ratio %.4f)\n", n.TotalTime()*100, n.SpanRatio)
	total := 0
	for _, c := range res.Stats.Sleeps {
		total += c
	}
	fmt.Printf("  episodes=%d sleeps=%d wakes: early=%d external=%d late=%d; disables=%d\n",
		res.Stats.Episodes, total,
		res.Stats.EarlyWakes, res.Stats.ExternalWakes, res.Stats.LateWakes,
		res.Stats.Disables)
}

// runCoreScaling runs the core-machine scaling study — the full CC-NUMA
// machine (caches, directories, predictor) home-node-partitioned onto
// the conservative parallel engine — at one CPU count and prints the
// topology × policy sweep. -j picks the shard count; 1 selects the plain
// sequential engine, the golden reference the sharded runs must match
// bit for bit, so a -j 1 vs -j 8 diff of the output (minus the header
// line) is the determinism check. -topology picks which fabric gets the
// detailed breakdown; every fabric appears in the table.
func runCoreScaling(nodes int, topology string, jobs int, seed uint64) {
	topo, err := core.ParseTopology(topology)
	if err != nil {
		usage("bad -topology: %v", err)
	}
	if nodes < 8 || nodes > 1024 || nodes&(nodes-1) != 0 {
		usage("bad -core-scaling %d (want a power of two in [8,1024])", nodes)
	}
	if jobs < 0 {
		usage("bad -j %d (want >= 0)", jobs)
	}
	shards := jobs
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	engineShards := shards
	if shards == 1 {
		engineShards = 0 // the plain sequential engine: the reference
	}

	rows := harness.CoreScalingExperiment(seed, nodes, engineShards)
	fmt.Printf("core scaling: %d CPUs, %d shards (seed %d)\n", nodes, shards, seed)
	detail := map[core.Topology]string{
		core.TopologyFlat:    "flat",
		core.TopologyTree:    "tree r=8",
		core.TopologyNoCTree: "noc tree",
	}[topo]
	for _, r := range rows {
		if r.Topology == detail && r.Variant == "Thrifty" {
			fmt.Printf("  %s thrifty: span=%v energy=%.3fx time=%.4fx sleeps=%d events=%d\n",
				r.Topology, r.Span, r.Energy, r.Time, r.Sleeps, r.Events)
		}
	}
	fmt.Print(harness.RenderCoreScaling(nodes, rows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thriftysim:", err)
	os.Exit(1)
}

// usage reports a flag-validation failure and exits 2, the conventional
// bad-invocation status (fatal's exit 1 is kept for runtime errors).
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "thriftysim: "+format+"\n", args...)
	os.Exit(2)
}
