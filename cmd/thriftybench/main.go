// Command thriftybench regenerates every table and figure of the paper's
// evaluation, plus the four ablations, on the simulated 64-node CC-NUMA
// machine.
//
// The (application × configuration) matrix and the independent
// ablation/sweep/extension experiments are fanned across a worker pool
// (-j). Every simulation derives its randomness from the seed alone, so
// the text artifacts are byte-identical regardless of -j; a run that
// panics or wedges is skipped with a diagnostic instead of aborting the
// bench. With -out, every text artifact gains a machine-readable .json
// twin and the invocation writes a BENCH_manifest.json recording the
// seed, architecture and per-run wall-clock.
//
// Usage:
//
//	thriftybench -all                 # everything (default)
//	thriftybench -table2 -fig5        # selected experiments
//	thriftybench -ablation cutoff     # one ablation (cutoff|wakeup|predictor|preempt|…|faults)
//	thriftybench -scaling             # 64/256/1024-node message-passing study
//	thriftybench -core-scaling        # 64/128/256-CPU core-machine study
//	thriftybench -nodes 16 -seed 7    # smaller machine, different seed
//	thriftybench -all -out results    # also write text + CSV + JSON files
//	thriftybench -all -j 1            # sequential (identical output)
//
// Performance is measured by the benchmark under bench/ (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/harness"
	"thriftybarrier/internal/power"
)

func main() {
	var (
		all       = flag.Bool("all", false, "run every table, figure and ablation")
		table1    = flag.Bool("table1", false, "print Table 1 (architecture)")
		table2    = flag.Bool("table2", false, "run and print Table 2 (barrier imbalance)")
		table3    = flag.Bool("table3", false, "print Table 3 (sleep states)")
		fig3      = flag.Bool("fig3", false, "run and print Figure 3 (BIT/BST variability)")
		fig5      = flag.Bool("fig5", false, "run and print Figure 5 (normalized energy)")
		fig6      = flag.Bool("fig6", false, "run and print Figure 6 (normalized execution time)")
		summary   = flag.Bool("summary", false, "print the headline numbers of section 5.1")
		ablation  = flag.String("ablation", "", "run one ablation: cutoff|wakeup|predictor|preempt|conventional|topology|confidence|dvfs|straggler|faults")
		sens      = flag.String("sensitivity", "", "run one sweep: nodes|transition|lockcontention|barrierlatency")
		ext       = flag.String("extension", "", "run one extension experiment: locks|mp")
		scaling   = flag.Bool("scaling", false, "run the 64/256/1024-node barrier scaling study on the message-passing cluster")
		coreScale = flag.Bool("core-scaling", false, "run the 64/128/256-CPU core-machine study (full CC-NUMA simulation)")
		nodes     = flag.Int("nodes", 64, "machine size (power of two <= 64)")
		seed      = flag.Uint64("seed", 1, "workload seed")
		observer  = flag.Int("observer", 11, "Figure 3 observer thread")
		outDir    = flag.String("out", "", "also write results into this directory")
		markdown  = flag.String("markdown", "", "run everything and write a self-contained Markdown report here")
		jobs      = flag.Int("j", runtime.NumCPU(), "worker-pool width for independent simulations (1 = sequential)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-run wall-clock limit; a wedged run is skipped with a diagnostic (0 = no limit)")
		jsonOut   = flag.Bool("json", true, "with -out, write a machine-readable .json twin next to every text artifact")
		progress  = flag.Bool("progress", true, "report per-run completion on stderr")
	)
	flag.Parse()

	if !*table1 && !*table2 && !*table3 && !*fig3 && !*fig5 && !*fig6 && !*summary && !*scaling && !*coreScale &&
		*ablation == "" && *sens == "" && *ext == "" && *markdown == "" {
		*all = true
	}
	if *all {
		*table1, *table2, *table3, *fig3, *fig5, *fig6, *summary = true, true, true, true, true, true, true
	}

	if *nodes < 1 || *nodes > 64 || *nodes&(*nodes-1) != 0 {
		usage("bad -nodes %d (want a power of two <= 64)", *nodes)
	}
	if *jobs < 1 {
		usage("bad -j %d (want >= 1)", *jobs)
	}

	arch := core.DefaultArch().WithNodes(*nodes)
	if *observer >= *nodes {
		*observer = *nodes - 1
	}

	runner := &harness.Runner{Jobs: *jobs, Timeout: *timeout}
	if *progress {
		runner.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "thriftybench: "+format+"\n", args...)
		}
	}
	manifest := harness.NewManifest(*seed, *nodes, runner)
	benchStart := time.Now()

	if *markdown != "" {
		report := runner.MarkdownReport(arch, *seed)
		if err := os.WriteFile(*markdown, []byte(report), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *markdown)
		if !*all && !*scaling && !*coreScale && *ablation == "" && *sens == "" && *ext == "" &&
			!*table1 && !*table2 && !*table3 && !*fig3 && !*fig5 && !*fig6 && !*summary {
			return
		}
	}

	writeFile := func(name string, data []byte) {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*outDir, name), data, 0o644); err != nil {
			fatal(err)
		}
	}
	// emit prints an artifact and, with -out, writes it plus its JSON twin.
	emit := func(name, text string, data any) {
		fmt.Println(text)
		if *outDir == "" {
			return
		}
		writeFile(name, []byte(text))
		if *jsonOut && data != nil {
			b, err := harness.MarshalArtifact(data)
			if err != nil {
				fatal(err)
			}
			writeFile(strings.TrimSuffix(name, filepath.Ext(name))+".json", b)
		}
	}

	// Experiment catalogue: each entry computes its rows once and renders
	// both the text table and the JSON twin from them.
	ablations := map[string]func() (string, any){
		"cutoff": func() (string, any) {
			rows := harness.AblationCutoff(arch, *seed)
			return harness.RenderAblation("Ablation A: overprediction cut-off on Ocean (section 5.2)", rows), rows
		},
		"wakeup": func() (string, any) {
			rows := harness.AblationWakeup(arch, *seed)
			return harness.RenderAblation("Ablation B: wake-up mechanisms (section 3.3)", rows), rows
		},
		"predictor": func() (string, any) {
			rows := harness.AblationPredictor(arch, *seed)
			return harness.RenderAblation("Ablation C: BIT predictor policies (section 3.2)", rows), rows
		},
		"preempt": func() (string, any) {
			rows := harness.AblationPreempt(arch, *seed)
			return harness.RenderAblation("Ablation D: preemption and the underprediction filter (section 3.4.2)", rows), rows
		},
		"conventional": func() (string, any) {
			rows := harness.AblationConventional(arch, *seed)
			return harness.RenderAblation("Ablation G: conventional low-power techniques vs Thrifty (section 5.1)", rows), rows
		},
		"dvfs": func() (string, any) {
			rows := harness.AblationDVFS(arch, *seed)
			return harness.RenderAblation("Ablation H: barrier sleeping vs slack-reclamation DVFS (section 1)", rows), rows
		},
		"straggler": func() (string, any) {
			rows := harness.AblationStraggler(arch, *seed)
			return harness.RenderAblation("Ablation I: pinned vs rotating straggler (why BIT beats direct BST, section 3.2)", rows), rows
		},
		"topology": func() (string, any) {
			rows := harness.AblationTopology(arch, *seed)
			return harness.RenderAblation("Ablation E: flat vs combining-tree check-in", rows), rows
		},
		"confidence": func() (string, any) {
			rows := harness.AblationConfidence(arch, *seed)
			return harness.RenderAblation("Ablation F: cut-off vs confidence estimator (section 3.3.3 future work)", rows), rows
		},
		"faults": func() (string, any) {
			rows := harness.AblationFaults(arch, *seed)
			return harness.RenderFaults(rows), rows
		},
	}
	sweeps := map[string]func() (string, any){
		"lockcontention": func() (string, any) {
			rows := harness.LockContentionSweep(*seed)
			return harness.RenderSensitivity("Sensitivity: lock contention (thrifty MCS lock, 16 threads)", rows), rows
		},
		"barrierlatency": func() (string, any) {
			rows := harness.BarrierLatency(*seed)
			return harness.RenderBarrierLatency(rows), rows
		},
		"nodes": func() (string, any) {
			rows := harness.SensitivityNodes(*seed)
			return harness.RenderSensitivity("Sensitivity: machine size (FMM)", rows), rows
		},
		"transition": func() (string, any) {
			rows := harness.SensitivityTransition(*seed)
			return harness.RenderSensitivity("Sensitivity: sleep transition latency scaling (FMM)", rows), rows
		},
	}
	extensions := map[string]func() (string, any){
		"locks": func() (string, any) {
			sat, mod := harness.LockExperiment(*seed)
			return harness.RenderLocks(sat, mod), struct {
				Saturated []harness.LockRow `json:"saturated"`
				Moderate  []harness.LockRow `json:"moderate"`
			}{sat, mod}
		},
		"mp": func() (string, any) {
			rows := harness.MPExperiment(*seed)
			return harness.RenderMP(rows), rows
		},
	}

	// Compute phase: queue every selected simulation as a named job, fan
	// the lot across the pool, then emit in the canonical artifact order.
	// preJobs hold the artifacts printed before the Figure 5/6 matrix,
	// postJobs the ones printed after it.
	type artifact struct {
		file string
		job  harness.Job
	}
	var preArts, postArts []artifact
	addPre := func(file, name string, fn func() (string, any)) {
		preArts = append(preArts, artifact{file, harness.Job{Name: name, Run: fn}})
	}
	addPost := func(file, name string, fn func() (string, any)) {
		postArts = append(postArts, artifact{file, harness.Job{Name: name, Run: fn}})
	}

	if *table2 {
		addPre("table2.txt", "table2", func() (string, any) {
			rows := harness.Table2(arch, *seed)
			return harness.RenderTable2(rows), rows
		})
	}
	if *fig3 {
		addPre("figure3.txt", "figure3", func() (string, any) {
			d := harness.Figure3(arch, *seed, *observer, 4, 4)
			return harness.RenderFigure3(d), d
		})
	}

	lookup := func(kind string, m map[string]func() (string, any), key, want string) func() (string, any) {
		fn, ok := m[key]
		if !ok {
			usage("unknown -%s %q (want %s)", kind, key, want)
		}
		return fn
	}
	if *ablation != "" {
		fn := lookup("ablation", ablations, *ablation, "cutoff|wakeup|predictor|preempt|conventional|topology|confidence|dvfs|straggler|faults")
		addPost("ablation_"+*ablation+".txt", "ablation "+*ablation, fn)
	}
	if *sens != "" {
		fn := lookup("sensitivity", sweeps, *sens, "nodes|transition|lockcontention|barrierlatency")
		addPost("sensitivity_"+*sens+".txt", "sensitivity "+*sens, fn)
	}
	if *ext != "" {
		fn := lookup("extension", extensions, *ext, "locks|mp")
		addPost("extension_"+*ext+".txt", "extension "+*ext, fn)
	}
	if *all {
		for _, name := range []string{"cutoff", "wakeup", "predictor", "preempt", "conventional", "topology", "confidence", "dvfs", "straggler", "faults"} {
			addPost("ablation_"+name+".txt", "ablation "+name, ablations[name])
		}
		for _, name := range []string{"nodes", "transition", "lockcontention", "barrierlatency"} {
			addPost("sensitivity_"+name+".txt", "sensitivity "+name, sweeps[name])
		}
		for _, name := range []string{"locks", "mp"} {
			addPost("extension_"+name+".txt", "extension "+name, extensions[name])
		}
	}
	if *all || *scaling {
		for _, n := range harness.ScalingPoints {
			n := n
			addPost(fmt.Sprintf("scaling_%d.txt", n), fmt.Sprintf("scaling %d", n), func() (string, any) {
				rows := harness.ScalingExperiment(*seed, n, 0)
				return harness.RenderScaling(n, rows), rows
			})
		}
	}
	if *all || *coreScale {
		for _, n := range harness.CoreScalingPoints {
			n := n
			addPost(fmt.Sprintf("core_scaling_%d.txt", n), fmt.Sprintf("core scaling %d", n), func() (string, any) {
				rows := harness.CoreScalingExperiment(*seed, n, 0)
				return harness.RenderCoreScaling(n, rows), rows
			})
		}
	}

	// Run the matrix first (it is its own fan-out), then the queued jobs.
	var apps []harness.AppRun
	if *fig5 || *fig6 || *summary {
		apps = runner.RunAll(arch, *seed)
		manifest.RecordApps(apps)
	}
	arts := append(append([]artifact{}, preArts...), postArts...)
	jobList := make([]harness.Job, len(arts))
	for i, a := range arts {
		jobList[i] = a.job
	}
	results := runner.Do(jobList)

	// Emit phase, sequential and in canonical order so stdout and the -out
	// directory are byte-identical across -j widths.
	emitResult := func(a artifact, jr harness.JobResult) {
		manifest.Record(jr.Name, jr.Wall, jr.Err)
		if jr.Err != "" {
			fmt.Fprintf(os.Stderr, "thriftybench: %s failed: %s (skipped; other runs unaffected)\n", jr.Name, jr.Err)
			return
		}
		emit(a.file, jr.Text, jr.Data)
	}

	if *table1 {
		emit("table1.txt", harness.RenderTable1(arch), arch)
	}
	if *table3 {
		model := power.DefaultModel()
		emit("table3.txt", harness.RenderTable3(model), struct {
			States   []power.SleepState `json:"states"`
			TDPMaxW  float64            `json:"tdp_max_w"`
			ComputeW float64            `json:"compute_w"`
			SpinW    float64            `json:"spin_w"`
		}{model.States(), model.TDPMax(), model.ComputePower(), model.SpinPower()})
	}
	for i, a := range preArts {
		emitResult(a, results[i])
	}
	if *fig5 {
		emit("figure5.txt", harness.RenderFigure(apps, true), apps)
		if *outDir != "" {
			emit("figure5.csv", harness.RenderFigureCSV(apps, true), nil)
		}
	}
	if *fig6 {
		emit("figure6.txt", harness.RenderFigure(apps, false), apps)
		if *outDir != "" {
			emit("figure6.csv", harness.RenderFigureCSV(apps, false), nil)
		}
	}
	if *summary {
		sums := harness.Summarize(apps)
		emit("summary.txt", harness.RenderSummary(sums), sums)
	}
	for i, a := range postArts {
		emitResult(a, results[len(preArts)+i])
	}

	if *outDir != "" && *jsonOut {
		manifest.ElapsedMS = float64(time.Since(benchStart).Microseconds()) / 1000
		b, err := harness.MarshalArtifact(manifest)
		if err != nil {
			fatal(err)
		}
		writeFile("BENCH_manifest.json", b)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thriftybench:", err)
	os.Exit(1)
}

// usage reports a flag-validation failure and exits 2, the conventional
// bad-invocation status (fatal's exit 1 is kept for runtime errors).
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "thriftybench: "+format+"\n", args...)
	os.Exit(2)
}
