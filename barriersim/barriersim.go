// Package barriersim is the public entry point to the thrifty-barrier
// simulator: run one of the calibrated SPLASH-2 stand-in applications — or
// your own measured barrier trace — on the simulated 64-node CC-NUMA
// machine under any of the paper's configurations, and get back the
// normalized energy/time breakdown the paper reports.
//
// The heavy machinery (coherence protocol, power model, workloads,
// harness) lives under internal/; this package re-exposes the stable
// surface a downstream user needs:
//
//	res, _ := barriersim.Run(barriersim.Request{App: "FMM", Config: barriersim.Thrifty})
//	fmt.Printf("energy vs baseline: %.1f%%\n", res.EnergyVsBaseline*100)
package barriersim

import (
	"fmt"
	"io"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/sim"
	"thriftybarrier/internal/workload"
)

// Config names a barrier configuration of the paper's evaluation.
type Config string

// The five systems of the evaluation (§5.1), plus the comparison policies.
const (
	Baseline     Config = "Baseline"
	ThriftyHalt  Config = "Thrifty-Halt"
	OracleHalt   Config = "Oracle-Halt"
	Thrifty      Config = "Thrifty"
	Ideal        Config = "Ideal"
	SpinThenHalt Config = "SpinThenHalt"
	UncondHalt   Config = "Uncond-Halt"
)

// options resolves a Config to the core configuration.
func options(c Config) (core.Options, error) {
	switch c {
	case Baseline:
		return core.Baseline(), nil
	case ThriftyHalt:
		return core.ThriftyHalt(), nil
	case OracleHalt:
		return core.OracleHalt(), nil
	case Thrifty, "":
		return core.Thrifty(), nil
	case Ideal:
		return core.Ideal(), nil
	case SpinThenHalt:
		return core.SpinThenHalt(), nil
	case UncondHalt:
		return core.UnconditionalHalt(), nil
	default:
		return core.Options{}, fmt.Errorf("barriersim: unknown config %q", c)
	}
}

// Apps lists the available applications in Table 2 order.
func Apps() []string {
	var out []string
	for _, s := range workload.All() {
		out = append(out, s.Name)
	}
	return out
}

// Request selects what to simulate. Exactly one of App or Trace must be
// set.
type Request struct {
	// App is a Table 2 application name (see Apps).
	App string
	// Trace replays a measured barrier trace (CSV "pc,dur0us,dur1us,...";
	// the thread count must be a power of two <= 64).
	Trace io.Reader
	// Config is the barrier configuration (default Thrifty).
	Config Config
	// Nodes overrides the machine size for App runs (default 64; must be a
	// power of two <= 64). Ignored for traces, which fix the size.
	Nodes int
	// Seed drives the workload randomness (default 1).
	Seed uint64
}

// Breakdown is an energy or time split by processor state, as fractions of
// the Baseline total (the stacked bars of Figures 5 and 6).
type Breakdown struct {
	Compute, Spin, Transition, Sleep float64
}

// Result is the outcome of one simulated run, normalized against the
// Baseline configuration of the same machine and program.
type Result struct {
	// App names what ran.
	App string
	// Config is the configuration that ran.
	Config Config
	// Imbalance is the Baseline barrier imbalance (Table 2's metric).
	Imbalance float64
	// EnergyVsBaseline is total energy relative to Baseline (1.0 = equal).
	EnergyVsBaseline float64
	// TimeVsBaseline is wall-clock span relative to Baseline.
	TimeVsBaseline float64
	// Energy and Time are the per-state splits (Figures 5/6 bars).
	Energy, Time Breakdown
	// Episodes is the number of dynamic barrier instances.
	Episodes int
	// Sleeps counts sleeps per state name.
	Sleeps map[string]int
}

// Run simulates the request and returns the normalized result.
func Run(req Request) (Result, error) {
	opts, err := options(req.Config)
	if err != nil {
		return Result{}, err
	}
	if req.Seed == 0 {
		req.Seed = 1
	}

	var prog core.SliceProgram
	var name string
	var nodes int
	switch {
	case req.App != "" && req.Trace != nil:
		return Result{}, fmt.Errorf("barriersim: set App or Trace, not both")
	case req.Trace != nil:
		phases, err := workload.ParseTrace(req.Trace)
		if err != nil {
			return Result{}, err
		}
		nodes = workload.TraceThreads(phases)
		if nodes&(nodes-1) != 0 || nodes > 64 {
			return Result{}, fmt.Errorf("barriersim: trace has %d threads; need a power of two <= 64", nodes)
		}
		arch := core.DefaultArch().WithNodes(nodes)
		prog, err = workload.BuildTrace(phases, arch.CPU.IPC)
		if err != nil {
			return Result{}, err
		}
		name = "trace"
	case req.App != "":
		spec, ok := workload.ByName(req.App)
		if !ok {
			return Result{}, fmt.Errorf("barriersim: unknown application %q (see Apps())", req.App)
		}
		nodes = req.Nodes
		if nodes == 0 {
			nodes = 64
		}
		if nodes <= 0 || nodes&(nodes-1) != 0 || nodes > 64 {
			return Result{}, fmt.Errorf("barriersim: nodes %d not a power of two <= 64", nodes)
		}
		prog = spec.Build(nodes, req.Seed)
		name = spec.Name
	default:
		return Result{}, fmt.Errorf("barriersim: set App or Trace")
	}

	arch := core.DefaultArch().WithNodes(nodes)
	base := core.Simulate(arch, core.Baseline(), prog, false)
	res := core.Simulate(arch, opts, prog, false)
	n := res.Breakdown.Normalize(base.Breakdown)

	cfg := req.Config
	if cfg == "" {
		cfg = Thrifty
	}
	return Result{
		App:              name,
		Config:           cfg,
		Imbalance:        base.Breakdown.SpinFraction(),
		EnergyVsBaseline: n.TotalEnergy(),
		TimeVsBaseline:   n.SpanRatio,
		Energy: Breakdown{
			Compute:    n.Energy[sim.StateCompute],
			Spin:       n.Energy[sim.StateSpin],
			Transition: n.Energy[sim.StateTransition],
			Sleep:      n.Energy[sim.StateSleep],
		},
		Time: Breakdown{
			Compute:    n.Time[sim.StateCompute],
			Spin:       n.Time[sim.StateSpin],
			Transition: n.Time[sim.StateTransition],
			Sleep:      n.Time[sim.StateSleep],
		},
		Episodes: res.Stats.Episodes,
		Sleeps:   res.Stats.Sleeps,
	}, nil
}
