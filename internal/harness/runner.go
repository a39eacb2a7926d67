package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/workload"
)

// Runner executes experiment jobs across a bounded worker pool with
// per-job panic recovery and a per-job timeout — the scaling and
// fault-isolation layer under cmd/thriftybench. Every simulation in the
// (application × configuration) matrix is deterministic and independent
// (workload builds are pure functions of the seed, machines share no
// state), so fanning them out changes wall-clock only: results are
// byte-identical to a sequential run regardless of scheduling.
//
// The zero value is a valid sequential-equivalent runner sized to the
// machine; a nil *Runner behaves the same.
type Runner struct {
	// Jobs is the worker-pool width. Zero or negative selects
	// runtime.NumCPU().
	Jobs int
	// Timeout bounds one job's wall-clock. A job that exceeds it is
	// abandoned and reported as failed with a diagnostic instead of
	// wedging the whole bench; its goroutine keeps running in the
	// background (the simulator has no preemption points), so the process
	// carries the leak until exit. Zero means no limit.
	Timeout time.Duration
	// Progress, when non-nil, receives one line per job lifecycle event
	// (done/failed, with wall-clock). It is called from worker goroutines
	// and must be safe for concurrent use.
	Progress func(format string, args ...any)
}

func (r *Runner) width() int {
	if r == nil || r.Jobs <= 0 {
		return runtime.NumCPU()
	}
	return r.Jobs
}

func (r *Runner) timeout() time.Duration {
	if r == nil {
		return 0
	}
	return r.Timeout
}

func (r *Runner) progress(format string, args ...any) {
	if r != nil && r.Progress != nil {
		r.Progress(format, args...)
	}
}

// Job is one named unit of experiment work: it renders a text artifact
// and/or returns the machine-readable data behind it.
type Job struct {
	Name string
	Run  func() (text string, data any)
}

// JobResult is the outcome of one Job. Err is non-empty if the job
// panicked or timed out; the remaining jobs run regardless.
type JobResult struct {
	Name string
	Text string
	Data any
	Err  string
	// Wall is the wall-clock the job consumed (capped at the timeout for
	// abandoned jobs) — the per-run timing the manifest tracks across PRs.
	Wall time.Duration
}

// Do runs jobs across the worker pool and returns results in input order.
// A job that panics or exceeds the timeout yields a JobResult with Err set
// and does not disturb its siblings.
func (r *Runner) Do(jobs []Job) []JobResult {
	out := make([]JobResult, len(jobs))
	sem := make(chan struct{}, r.width())
	var wg sync.WaitGroup
	for i := range jobs {
		i := i
		sem <- struct{}{} // acquire before spawning: bounds live goroutines
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = r.runOne(jobs[i])
		}()
	}
	wg.Wait()
	return out
}

// runOne executes one job under panic recovery and the timeout.
func (r *Runner) runOne(j Job) JobResult {
	start := time.Now()
	type payload struct {
		text string
		data any
		err  string
	}
	done := make(chan payload, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- payload{err: fmt.Sprintf("panic: %v", p)}
			}
		}()
		text, data := j.Run()
		done <- payload{text: text, data: data}
	}()

	var p payload
	if d := r.timeout(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case p = <-done:
		case <-t.C:
			p = payload{err: fmt.Sprintf("timed out after %v; run abandoned", d)}
		}
	} else {
		p = <-done
	}

	res := JobResult{Name: j.Name, Text: p.text, Data: p.data, Err: p.err, Wall: time.Since(start)}
	if p.err != "" {
		r.progress("FAIL %-28s %8s  %s", j.Name, res.Wall.Round(time.Millisecond), p.err)
	} else {
		r.progress("done %-28s %8s", j.Name, res.Wall.Round(time.Millisecond))
	}
	return res
}

// RunMatrix fans the (application × configuration) matrix across the pool.
// Each cell builds its own program from the run's derived seed (spec.Build
// mixes the global seed with the spec's own stream key, so every cell's
// randomness is independent of execution order) and runs it on a private
// machine. The first configuration must be the Baseline: it anchors each
// application's normalization. A cell that fails is returned with
// ConfigRun.Err set and skipped by the renderers; a failed Baseline
// invalidates the whole app's normalization, so its sibling cells are
// marked failed too.
func (r *Runner) RunMatrix(arch core.Arch, seed uint64, specs []workload.Spec, configs []core.Options) []AppRun {
	jobs := make([]Job, 0, len(specs)*len(configs))
	for _, spec := range specs {
		spec := spec
		for _, opts := range configs {
			opts := opts
			jobs = append(jobs, Job{
				Name: spec.Name + "/" + opts.Name,
				Run: func() (string, any) {
					prog := spec.Build(arch.Nodes, seed)
					return "", core.Simulate(arch, opts, prog, false)
				},
			})
		}
	}
	results := r.Do(jobs)

	out := make([]AppRun, 0, len(specs))
	for a, spec := range specs {
		app := AppRun{Spec: spec}
		var base core.Result
		baseOK := false
		for c, opts := range configs {
			jr := results[a*len(configs)+c]
			cr := ConfigRun{Config: opts, Err: jr.Err, Wall: jr.Wall}
			if jr.Err == "" {
				cr.Result = jr.Data.(core.Result)
				if c == 0 {
					base = cr.Result
					baseOK = true
					app.Measured = base.Breakdown.SpinFraction()
				}
				if baseOK {
					cr.Norm = cr.Result.Breakdown.Normalize(base.Breakdown)
				} else {
					cr.Err = "baseline run failed; normalization unavailable"
				}
			}
			app.Runs = append(app.Runs, cr)
		}
		out = append(out, app)
	}
	return out
}

// RunAll executes the full Figure 5/6 matrix — the five configurations
// over the ten Table 2 applications — across the pool.
func (r *Runner) RunAll(arch core.Arch, seed uint64) []AppRun {
	return r.RunMatrix(arch, seed, workload.All(), core.Configurations())
}

// RunApp executes every configuration in configs over one application.
func (r *Runner) RunApp(arch core.Arch, spec workload.Spec, seed uint64, configs []core.Options) AppRun {
	return r.RunMatrix(arch, seed, []workload.Spec{spec}, configs)[0]
}

// Manifest is the machine-readable record of one bench invocation: what
// ran, with which seed and architecture, and how long each run took — the
// BENCH_*.json perf trajectory tracked across PRs.
type Manifest struct {
	Seed      uint64        `json:"seed"`
	Nodes     int           `json:"nodes"`
	Jobs      int           `json:"jobs"`
	Timeout   string        `json:"timeout,omitempty"`
	GoVersion string        `json:"go_version"`
	Runs      []ManifestRun `json:"runs"`
	// TotalWallMS sums the per-run walls (the sequential cost); ElapsedMS
	// is the invocation's actual wall-clock, so TotalWallMS/ElapsedMS
	// approximates the parallel speedup.
	TotalWallMS float64 `json:"total_wall_ms"`
	ElapsedMS   float64 `json:"elapsed_ms,omitempty"`
}

// ManifestRun is one run's entry in the manifest.
type ManifestRun struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	Err    string  `json:"err,omitempty"`
}

// NewManifest starts a manifest for one invocation.
func NewManifest(seed uint64, nodes int, r *Runner) *Manifest {
	m := &Manifest{Seed: seed, Nodes: nodes, Jobs: 0, GoVersion: runtime.Version()}
	if r != nil {
		m.Jobs = r.width()
		if r.Timeout > 0 {
			m.Timeout = r.Timeout.String()
		}
	}
	return m
}

// Record appends one run's timing.
func (m *Manifest) Record(name string, wall time.Duration, errText string) {
	ms := float64(wall.Microseconds()) / 1000
	m.Runs = append(m.Runs, ManifestRun{Name: name, WallMS: ms, Err: errText})
	m.TotalWallMS += ms
}

// RecordApps appends every matrix cell of a RunAll/RunMatrix result.
func (m *Manifest) RecordApps(apps []AppRun) {
	for _, app := range apps {
		for _, run := range app.Runs {
			m.Record(app.Spec.Name+"/"+run.Config.Name, run.Wall, run.Err)
		}
	}
}
