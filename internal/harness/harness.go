// Package harness runs the paper's experiments end to end and renders
// their tables and figures: Tables 1–3, Figure 3 (BIT/BST variability),
// Figures 5 and 6 (normalized energy and execution time for the five
// system configurations over the ten applications), and the four ablations
// the evaluation section discusses (overprediction cut-off, wake-up
// mechanism, predictor policy, preemption filtering).
package harness

import (
	"fmt"
	"math"
	"time"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/energy"
	"thriftybarrier/internal/workload"
)

// ConfigRun is one (application, configuration) measurement.
type ConfigRun struct {
	Config core.Options
	Result core.Result
	// Norm is the Figure 5/6 normalization against the app's Baseline.
	Norm energy.Normalized
	// Err is non-empty when the run panicked, timed out, or lost its
	// normalization anchor; such runs carry no measurement and are skipped
	// by the renderers.
	Err string `json:",omitempty"`
	// Wall is the host wall-clock the run consumed. Excluded from artifact
	// JSON (it would break byte-for-byte determinism checks); the manifest
	// carries it instead.
	Wall time.Duration `json:"-"`
}

// OK reports whether the run produced a measurement.
func (c ConfigRun) OK() bool { return c.Err == "" }

// AppRun bundles the five configuration runs of one application.
type AppRun struct {
	Spec     workload.Spec
	Measured float64 // Baseline barrier imbalance (Table 2 check)
	Runs     []ConfigRun
}

// Run finds a configuration's run by name.
func (a AppRun) Run(name string) (ConfigRun, bool) {
	for _, r := range a.Runs {
		if r.Config.Name == name {
			return r, true
		}
	}
	return ConfigRun{}, false
}

// RunApp executes every configuration in configs over one application. The
// first configuration must be the Baseline (it anchors the normalization).
// It is the sequential form of Runner.RunApp.
func RunApp(arch core.Arch, spec workload.Spec, seed uint64, configs []core.Options) AppRun {
	return (&Runner{Jobs: 1}).RunApp(arch, spec, seed, configs)
}

// RunAll executes the full Figure 5/6 matrix: the five configurations over
// the ten Table 2 applications. It is the sequential form of Runner.RunAll.
func RunAll(arch core.Arch, seed uint64) []AppRun {
	return (&Runner{Jobs: 1}).RunAll(arch, seed)
}

// Summary condenses the headline numbers the paper quotes in §5.1: average
// energy savings and performance degradation of a configuration over the
// target applications (imbalance >= 10%).
type Summary struct {
	Config            string
	AvgEnergySavings  float64 // over target apps
	AvgSlowdown       float64 // over target apps
	WorstSlowdown     float64
	WorstSlowdownApp  string
	AllAppsAvgSavings float64
	// AvgEDP is the mean normalized energy-delay product over the target
	// apps (energy x time vs Baseline; < 1 means the savings outweigh the
	// slowdown even by the stricter metric energy papers often report).
	AvgEDP float64
}

// Summarize computes per-configuration headline numbers from a full run.
func Summarize(apps []AppRun) []Summary {
	if len(apps) == 0 {
		return nil
	}
	var out []Summary
	for _, cfg := range apps[0].Runs {
		name := cfg.Config.Name
		var tgtSave, tgtSlow, tgtEDP, allSave, worst float64
		worstApp := ""
		nTgt := 0
		for _, app := range apps {
			r, ok := app.Run(name)
			if !ok || !r.OK() {
				continue
			}
			save := 1 - r.Norm.TotalEnergy()
			slow := r.Norm.SpanRatio - 1
			allSave += save
			if app.Spec.TargetImbalance >= 0.10 {
				tgtSave += save
				tgtSlow += slow
				tgtEDP += r.Norm.TotalEnergy() * r.Norm.SpanRatio
				nTgt++
			}
			if slow > worst {
				worst = slow
				worstApp = app.Spec.Name
			}
		}
		s := Summary{Config: name, WorstSlowdown: worst, WorstSlowdownApp: worstApp}
		if nTgt > 0 {
			s.AvgEnergySavings = tgtSave / float64(nTgt)
			s.AvgSlowdown = tgtSlow / float64(nTgt)
			s.AvgEDP = tgtEDP / float64(nTgt)
		}
		s.AllAppsAvgSavings = allSave / float64(len(apps))
		out = append(out, s)
	}
	return out
}

// Figure3Point is one bar of Figure 3: a dynamic instance of one of FMM's
// three main-loop barriers, as seen by a fixed observer thread, normalized
// to the average BIT over the twelve instances shown.
type Figure3Point struct {
	Barrier   string
	Iteration int
	BIT       float64
	Compute   float64
	BST       float64
}

// Figure3Data is the figure plus the stability statistics the paper's
// argument rests on.
type Figure3Data struct {
	Points   []Figure3Point
	Observer int
	// Per-barrier coefficients of variation across ALL instances (not just
	// the four shown): the quantitative form of "BIT is far more stable
	// than BST".
	BarrierLabels []string
	BITCoefVar    []float64
	BSTCoefVar    []float64
}

// Figure3 reproduces the Figure 3 experiment: run FMM under Baseline on the
// full machine, record every episode, and extract four consecutive
// iterations of its three main-loop barriers for a fixed observer thread.
func Figure3(arch core.Arch, seed uint64, observer, firstIteration, iterations int) Figure3Data {
	validateObserver(arch, observer)
	spec := workload.FMM()
	prog := spec.Build(arch.Nodes, seed)
	res := core.Simulate(arch, core.Baseline(), prog, true)

	perIter := len(spec.Loop)
	labels := make([]string, perIter)
	for i, b := range spec.Loop {
		labels[i] = b.Label
	}

	// Collect BIT/BST series for every instance, grouped by static barrier.
	bits := make([][]float64, perIter)
	bsts := make([][]float64, perIter)
	for idx, ep := range res.Episodes {
		j := idx % perIter
		bits[j] = append(bits[j], float64(ep.BIT))
		bst := float64(ep.Depart[observer] - ep.Arrive[observer])
		if bst < 0 {
			bst = 0
		}
		bsts[j] = append(bsts[j], bst)
	}

	data := Figure3Data{Observer: observer, BarrierLabels: labels}
	for j := 0; j < perIter; j++ {
		data.BITCoefVar = append(data.BITCoefVar, coefVar(bits[j]))
		data.BSTCoefVar = append(data.BSTCoefVar, coefVar(bsts[j]))
	}

	// The twelve bars: iterations [firstIteration, firstIteration+iterations).
	var avgBIT float64
	n := 0
	for it := firstIteration; it < firstIteration+iterations; it++ {
		for j := 0; j < perIter; j++ {
			avgBIT += bits[j][it]
			n++
		}
	}
	avgBIT /= float64(n)
	for it := firstIteration; it < firstIteration+iterations; it++ {
		for j := 0; j < perIter; j++ {
			bit := bits[j][it] / avgBIT
			bst := bsts[j][it] / avgBIT
			data.Points = append(data.Points, Figure3Point{
				Barrier:   labels[j],
				Iteration: it,
				BIT:       bit,
				Compute:   bit - bst,
				BST:       bst,
			})
		}
	}
	return data
}

func coefVar(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// Table2Row is one row of the Table 2 reproduction.
type Table2Row struct {
	App         string
	ProblemSize string
	Paper       float64
	Measured    float64
}

// Table2 measures Baseline barrier imbalance for every application.
func Table2(arch core.Arch, seed uint64) []Table2Row {
	var out []Table2Row
	for _, spec := range workload.All() {
		res := core.Simulate(arch, core.Baseline(), spec.Build(arch.Nodes, seed), false)
		out = append(out, Table2Row{
			App:         spec.Name,
			ProblemSize: spec.ProblemSize,
			Paper:       spec.TargetImbalance,
			Measured:    res.Breakdown.SpinFraction(),
		})
	}
	return out
}

// validateObserver panics early on a bad observer thread id.
func validateObserver(arch core.Arch, observer int) {
	if observer < 0 || observer >= arch.Nodes {
		panic(fmt.Sprintf("harness: observer %d out of range [0,%d)", observer, arch.Nodes))
	}
}
