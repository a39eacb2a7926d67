package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/harness"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/workload"
)

// studies is the paper-reproduction workload: one pass runs every job of
// `thriftybench -all` through harness.Runner, as that command does — the
// Figure 5/6 matrix first, then the tables, figures, ablations, sweeps,
// extensions and scaling studies — and renders the same artifacts, which
// must equal the committed results/ byte for byte.
//
// The studies always run the committed reproduction, at studySeed:
// results/ holds no reference for another seed, and at some seeds a job
// panics (README.md, "Second finding"). The run's seed does not change
// them.
type studies struct {
	cfg    *config
	arch   core.Arch
	runner *harness.Runner
	jobs   []studyJob
	matrix bool
	want   map[string]string // committed artifacts, by file name
	l      *ledger
}

// studySeed is the seed of the committed results/.
const studySeed = 1

// studyPasses is the fewest passes a full-size measurement makes: the
// host's speed wanders over seconds, and three passes (about 40 s on two
// vCPUs) average it where two left the run-to-run spread near the bound.
const studyPasses = 3

// studyJob is one Runner job and the artifact it renders.
type studyJob struct {
	file, name, category string
	run                  func() string
}

// smokeJobs is the subset the smoke test runs, without the matrix: the
// cheapest jobs, still checked against results/.
var smokeJobs = map[string]bool{"sensitivity barrierlatency": true, "extension mp": true, "scaling 64": true}

func setupStudies(cfg *config, l *ledger) (instance, error) {
	s := &studies{
		cfg:    cfg,
		arch:   core.DefaultArch().WithNodes(64),
		runner: &harness.Runner{Jobs: runtime.NumCPU(), Timeout: time.Minute},
		matrix: !cfg.smoke,
		l:      l,
	}
	for _, j := range studyJobs(s.arch, studySeed, runtime.NumCPU()) {
		if !cfg.smoke || smokeJobs[j.name] {
			s.jobs = append(s.jobs, j)
		}
	}
	// Warm-up: the first job once — Table 2, which runs all ten
	// applications under Baseline — grows the heap and pages the
	// simulator in before timing.
	s.jobs[0].run()
	s.want = map[string]string{}
	names := []string{"table1.txt", "table3.txt", "figure5.txt", "figure5.csv", "figure6.txt", "figure6.csv", "summary.txt"}
	for _, j := range s.jobs {
		names = append(names, j.file)
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(cfg.root, "results", name))
		if os.IsNotExist(err) {
			continue // not committed: ablation_faults.txt
		} else if err != nil {
			return nil, err
		}
		s.want[name] = string(data)
	}
	return s, nil
}

// studyJobs is the job catalogue of `thriftybench -all`: same names, same
// artifacts, same seeds, with width doubling as the scaling studies'
// engine shard count as it does there.
func studyJobs(arch core.Arch, seed uint64, width int) []studyJob {
	observer := 11
	if observer >= arch.Nodes {
		observer = arch.Nodes - 1
	}
	job := func(file, name, category string, run func() string) studyJob {
		return studyJob{file: file, name: name, category: category, run: run}
	}
	ablation := func(name, title string, rows func(core.Arch, uint64) []harness.AblationRow) studyJob {
		return job("ablation_"+name+".txt", "ablation "+name, "ablations", func() string {
			return harness.RenderAblation(title, rows(arch, seed))
		})
	}
	sensitivity := func(name, title string, rows func(uint64) []harness.SensitivityRow) studyJob {
		return job("sensitivity_"+name+".txt", "sensitivity "+name, "sensitivity", func() string {
			return harness.RenderSensitivity(title, rows(seed))
		})
	}
	jobs := []studyJob{
		job("table2.txt", "table2", "other", func() string { return harness.RenderTable2(harness.Table2(arch, seed)) }),
		job("figure3.txt", "figure3", "other", func() string {
			return harness.RenderFigure3(harness.Figure3(arch, seed, observer, 4, 4))
		}),
		ablation("cutoff", "Ablation A: overprediction cut-off on Ocean (section 5.2)", harness.AblationCutoff),
		ablation("wakeup", "Ablation B: wake-up mechanisms (section 3.3)", harness.AblationWakeup),
		ablation("predictor", "Ablation C: BIT predictor policies (section 3.2)", harness.AblationPredictor),
		ablation("preempt", "Ablation D: preemption and the underprediction filter (section 3.4.2)", harness.AblationPreempt),
		ablation("conventional", "Ablation G: conventional low-power techniques vs Thrifty (section 5.1)", harness.AblationConventional),
		ablation("topology", "Ablation E: flat vs combining-tree check-in", harness.AblationTopology),
		ablation("confidence", "Ablation F: cut-off vs confidence estimator (section 3.3.3 future work)", harness.AblationConfidence),
		ablation("dvfs", "Ablation H: barrier sleeping vs slack-reclamation DVFS (section 1)", harness.AblationDVFS),
		ablation("straggler", "Ablation I: pinned vs rotating straggler (why BIT beats direct BST, section 3.2)", harness.AblationStraggler),
		job("ablation_faults.txt", "ablation faults", "ablations", func() string {
			return harness.RenderFaults(harness.AblationFaults(arch, seed))
		}),
		sensitivity("nodes", "Sensitivity: machine size (FMM)", harness.SensitivityNodes),
		sensitivity("transition", "Sensitivity: sleep transition latency scaling (FMM)", harness.SensitivityTransition),
		sensitivity("lockcontention", "Sensitivity: lock contention (thrifty MCS lock, 16 threads)", harness.LockContentionSweep),
		job("sensitivity_barrierlatency.txt", "sensitivity barrierlatency", "sensitivity", func() string {
			return harness.RenderBarrierLatency(harness.BarrierLatency(seed))
		}),
		job("extension_locks.txt", "extension locks", "other", func() string {
			return harness.RenderLocks(harness.LockExperiment(seed))
		}),
		job("extension_mp.txt", "extension mp", "other", func() string { return harness.RenderMP(harness.MPExperiment(seed)) }),
	}
	for _, n := range harness.ScalingPoints {
		n := n
		jobs = append(jobs, job(fmt.Sprintf("scaling_%d.txt", n), fmt.Sprintf("scaling %d", n), "scaling", func() string {
			return harness.RenderScaling(n, harness.ScalingExperiment(seed, n, width))
		}))
	}
	shards := width
	if shards == 1 {
		shards = 0 // the sequential reference engine, as at -j 1
	}
	for _, n := range harness.CoreScalingPoints {
		n := n
		jobs = append(jobs, job(fmt.Sprintf("core_scaling_%d.txt", n), fmt.Sprintf("core scaling %d", n), "core_scaling", func() string {
			return harness.RenderCoreScaling(n, harness.CoreScalingExperiment(seed, n, shards))
		}))
	}
	return jobs
}

// jobWall is one finished job.
type jobWall struct {
	category string
	wall     time.Duration
}

// pass runs the studies once and returns their artifacts and job walls.
func (s *studies) pass(tr *tracer, parent int) (map[string]string, []jobWall) {
	arts := map[string]string{}
	var walls []jobWall
	finish := func(category string, wall time.Duration, errText string) {
		walls = append(walls, jobWall{category, wall})
		var err error
		if errText != "" {
			err = errors.New(errText)
		}
		s.l.end(err)
	}
	if s.matrix {
		s.l.begin(len(workload.All()) * len(core.Configurations()))
		id := tr.begin("harness.Runner.RunAll", parent)
		apps := s.runner.RunAll(s.arch, studySeed)
		tr.end(id)
		for _, app := range apps {
			for _, run := range app.Runs {
				finish("matrix", run.Wall, run.Err)
			}
		}
		arts["figure5.txt"] = harness.RenderFigure(apps, true)
		arts["figure5.csv"] = harness.RenderFigureCSV(apps, true)
		arts["figure6.txt"] = harness.RenderFigure(apps, false)
		arts["figure6.csv"] = harness.RenderFigureCSV(apps, false)
		arts["summary.txt"] = harness.RenderSummary(harness.Summarize(apps))
	}
	s.l.begin(len(s.jobs))
	doID := tr.begin("harness.Runner.Do", parent)
	jobs := make([]harness.Job, len(s.jobs))
	for i, j := range s.jobs {
		j := j
		jobs[i] = harness.Job{Name: j.name, Run: func() (string, any) {
			id := tr.begin("harness.job "+j.name, doID)
			defer tr.end(id)
			return j.run(), nil
		}}
	}
	results := s.runner.Do(jobs)
	tr.end(doID)
	for i, jr := range results {
		finish(s.jobs[i].category, jr.Wall, jr.Err)
		if jr.Err == "" {
			arts[s.jobs[i].file] = jr.Text
		}
	}
	arts["table1.txt"] = harness.RenderTable1(s.arch)
	arts["table3.txt"] = harness.RenderTable3(power.DefaultModel())
	return arts, walls
}

func (s *studies) measure(d time.Duration, tr *tracer, parent int) measurement {
	// The slowest tenth of the jobs are the heaviest ablations and sweeps.
	// The same job's wall moves by a fifth from pass to pass, with the job
	// beside it in the pool and the host, so the tail is their mean.
	m := measurement{tailQ: 0.9, tailMean: true}
	var walls []jobWall
	start := time.Now()
	passes, minPasses := 0, studyPasses
	if s.cfg.smoke {
		minPasses = 1
	}
	for passes < minPasses || len(walls) < s.cfg.tailSamples(m.tailQ) || time.Since(start) < d {
		// Each pass starts on a collected heap, as a testing.B benchmark
		// does, so no pass pays for its predecessor's garbage.
		runtime.GC()
		t, cpu0 := time.Now(), processCPU()
		arts, w := s.pass(tr, parent)
		m.wall += time.Since(t)
		m.cpu += processCPU() - cpu0
		walls = append(walls, w...)
		passes++
		for name, text := range arts {
			if want, ok := s.want[name]; ok && want != text {
				s.l.mismatch("artifact %s differs from results/%s", name, name)
			}
		}
	}
	m.ops = float64(len(walls))

	sums := map[string]float64{}
	var total, critical float64
	for _, w := range walls {
		sec := w.wall.Seconds()
		m.lat = append(m.lat, sec*1e6)
		sums[w.category] += sec
		total += sec
		if sec > critical {
			critical = sec
		}
	}
	m.layers = map[string]float64{
		"harness.critical_job_s": critical,
		"harness.pool_busy_frac": total / (m.wall.Seconds() * float64(s.runner.Jobs)),
	}
	for _, c := range []string{"matrix", "ablations", "sensitivity", "scaling", "core_scaling", "other"} {
		m.layers["harness.job_s."+c] = sums[c] / float64(passes)
	}
	return m
}

func (s *studies) close() {}
