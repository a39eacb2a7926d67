package harness

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/workload"
)

// TestParallelMatchesSequential is the determinism contract of the
// tentpole: fanning the matrix across a pool must leave every rendered
// artifact byte-identical to the sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	arch := core.DefaultArch().WithNodes(8)
	specs := workload.All()[:3]
	configs := core.Configurations()

	seqR := &Runner{Jobs: 1}
	parR := &Runner{Jobs: 8}
	seq := seqR.RunMatrix(arch, 1, specs, configs)
	par := parR.RunMatrix(arch, 1, specs, configs)

	for _, render := range []func([]AppRun) string{
		func(a []AppRun) string { return RenderFigure(a, true) },
		func(a []AppRun) string { return RenderFigure(a, false) },
		func(a []AppRun) string { return RenderFigureCSV(a, true) },
		func(a []AppRun) string { return RenderSummary(Summarize(a)) },
	} {
		if s, p := render(seq), render(par); s != p {
			t.Fatalf("parallel run diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", s, p)
		}
	}
}

// TestDoPanicIsolation: a panicking job is reported via Err and its
// siblings complete normally.
func TestDoPanicIsolation(t *testing.T) {
	r := &Runner{Jobs: 4}
	results := r.Do([]Job{
		{Name: "ok1", Run: func() (string, any) { return "one", 1 }},
		{Name: "boom", Run: func() (string, any) { panic("injected failure") }},
		{Name: "ok2", Run: func() (string, any) { return "two", 2 }},
	})
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[0].Err != "" || results[0].Text != "one" {
		t.Errorf("ok1 = %+v, want clean result", results[0])
	}
	if !strings.Contains(results[1].Err, "injected failure") {
		t.Errorf("boom.Err = %q, want the panic message", results[1].Err)
	}
	if results[2].Err != "" || results[2].Text != "two" {
		t.Errorf("ok2 = %+v, want clean result", results[2])
	}
}

// TestDoTimeout: a wedged job is abandoned with a diagnostic while its
// siblings complete.
func TestDoTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // unwedge the abandoned goroutine at test end
	r := &Runner{Jobs: 4, Timeout: 50 * time.Millisecond}
	results := r.Do([]Job{
		{Name: "hang", Run: func() (string, any) { <-release; return "", nil }},
		{Name: "ok", Run: func() (string, any) { return "fine", nil }},
	})
	if !strings.Contains(results[0].Err, "timed out") {
		t.Errorf("hang.Err = %q, want a timeout diagnostic", results[0].Err)
	}
	if results[1].Err != "" || results[1].Text != "fine" {
		t.Errorf("ok = %+v, want clean result", results[1])
	}
}

// TestDoOverlapsJobs: with pool width w, w sleeping jobs overlap — the
// wall-clock proof the pool actually runs jobs concurrently (valid even
// on a single-core host: sleeps need no CPU).
func TestDoOverlapsJobs(t *testing.T) {
	const naps = 4
	const nap = 100 * time.Millisecond
	job := Job{Name: "nap", Run: func() (string, any) { time.Sleep(nap); return "", nil }}
	jobs := []Job{job, job, job, job}

	start := time.Now()
	(&Runner{Jobs: naps}).Do(jobs)
	wide := time.Since(start)

	if wide >= naps*nap/2 {
		t.Errorf("width-%d pool took %v over %d×%v sleeps; want at least 2x overlap", naps, wide, naps, nap)
	}
}

// TestDoBoundsConcurrency: a width-1 pool never runs two jobs at once.
func TestDoBoundsConcurrency(t *testing.T) {
	var live, maxLive atomic.Int32
	job := Job{Name: "n", Run: func() (string, any) {
		if l := live.Add(1); l > maxLive.Load() {
			maxLive.Store(l)
		}
		time.Sleep(5 * time.Millisecond)
		live.Add(-1)
		return "", nil
	}}
	(&Runner{Jobs: 1}).Do([]Job{job, job, job})
	if maxLive.Load() != 1 {
		t.Errorf("width-1 pool reached %d concurrent jobs, want 1", maxLive.Load())
	}
}

// TestRunMatrixBaselineFailure: a failed Baseline poisons that app's
// normalization (every sibling carries Err) without touching other apps.
func TestRunMatrixBaselineFailure(t *testing.T) {
	arch := core.DefaultArch().WithNodes(4)
	specs := workload.All()[:1]
	// Cutoff < 0 fails Options.Validate, so core.Simulate panics inside the
	// cell; the runner must recover it into ConfigRun.Err.
	bad := core.Baseline()
	bad.Cutoff = -1
	configs := []core.Options{bad, core.Thrifty()}

	apps := (&Runner{Jobs: 2}).RunMatrix(arch, 1, specs, configs)
	runs := apps[0].Runs
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	if !strings.Contains(runs[0].Err, "panic") {
		t.Errorf("baseline.Err = %q, want recovered panic", runs[0].Err)
	}
	if runs[1].Err != "baseline run failed; normalization unavailable" {
		t.Errorf("sibling.Err = %q, want the poisoned-normalization marker", runs[1].Err)
	}

	// The renderers must degrade, not crash, on the poisoned app.
	fig := RenderFigure(apps, true)
	if !strings.Contains(fig, "FAILED") {
		t.Errorf("RenderFigure output lacks FAILED marker:\n%s", fig)
	}
	if sums := Summarize(apps); len(sums) != 2 {
		t.Errorf("Summarize returned %d summaries, want 2 (skipping failed runs, not configs)", len(sums))
	}
}

// TestManifestRecords: the manifest accumulates per-run walls and carries
// the invocation parameters.
func TestManifestRecords(t *testing.T) {
	r := &Runner{Jobs: 3, Timeout: time.Second}
	m := NewManifest(7, 16, r)
	if m.Seed != 7 || m.Nodes != 16 || m.Jobs != 3 || m.Timeout != "1s" {
		t.Fatalf("manifest header = %+v", m)
	}
	m.Record("a", 10*time.Millisecond, "")
	m.Record("b", 15*time.Millisecond, "timed out")
	if len(m.Runs) != 2 || m.Runs[1].Err != "timed out" {
		t.Fatalf("runs = %+v", m.Runs)
	}
	if m.TotalWallMS != 25 {
		t.Errorf("TotalWallMS = %v, want 25", m.TotalWallMS)
	}
}

// TestMarshalArtifactStable: the JSON twin of a matrix result must not
// depend on host timing (Wall is excluded from ConfigRun).
func TestMarshalArtifactStable(t *testing.T) {
	run := ConfigRun{Config: core.Baseline(), Wall: 123 * time.Millisecond}
	b, err := MarshalArtifact([]ConfigRun{run})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Wall") {
		t.Errorf("artifact JSON leaks host wall-clock:\n%s", b)
	}
	if b[len(b)-1] != '\n' {
		t.Errorf("artifact JSON must end with a newline")
	}
}
