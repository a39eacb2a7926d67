package trace

import (
	"encoding/json"
	"testing"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/cpu"
)

func recordedRun(t *testing.T, opts core.Options) []core.EpisodeRecord {
	t.Helper()
	arch := core.DefaultArch().WithNodes(8)
	prog := core.UniformProgram(0x100, 5, func(instance, thread int) cpu.Segment {
		insns := int64(100_000)
		if thread == 0 {
			insns += 400_000
		}
		return cpu.Segment{Instructions: insns}
	})
	return core.Simulate(arch, opts, prog, true).Episodes
}

type traceFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func parse(t *testing.T, data []byte) traceFile {
	t.Helper()
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	return tf
}

func TestChromeTraceBaseline(t *testing.T) {
	recs := recordedRun(t, core.Baseline())
	data, err := ChromeTrace(recs, "Baseline")
	if err != nil {
		t.Fatal(err)
	}
	tf := parse(t, data)
	var compute, spin, release int
	for _, e := range tf.TraceEvents {
		switch e.Name {
		case "compute":
			compute++
		case "spin":
			spin++
		case "release":
			release++
		}
	}
	if compute == 0 {
		t.Error("no compute slices")
	}
	// 7 early threads x 5 episodes spin; 5 releases.
	if spin != 35 {
		t.Errorf("spin slices = %d, want 35", spin)
	}
	if release != 5 {
		t.Errorf("release slices = %d, want 5", release)
	}
}

func TestChromeTraceThriftyNamesSleepStates(t *testing.T) {
	recs := recordedRun(t, core.Thrifty())
	data, err := ChromeTrace(recs, "Thrifty")
	if err != nil {
		t.Fatal(err)
	}
	tf := parse(t, data)
	sleeps := 0
	for _, e := range tf.TraceEvents {
		// Slept waits are named after their sleep state ("Sleep1 (Halt)",
		// "Sleep2", "Sleep3"), whether they ended as pure sleeps or as
		// residual spins after an early internal wake.
		if e.Ph == "X" && len(e.Name) >= 5 && e.Name[:5] == "Sleep" {
			sleeps++
		}
	}
	if sleeps == 0 {
		t.Error("no sleep-state slices in a Thrifty trace")
	}
}

func TestChromeTracePerThreadMonotonic(t *testing.T) {
	recs := recordedRun(t, core.Thrifty())
	data, err := ChromeTrace(recs, "Thrifty")
	if err != nil {
		t.Fatal(err)
	}
	tf := parse(t, data)
	last := map[int]float64{}
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Ts < last[e.TID]-1e-6 { // float epsilon from ns->us division
			t.Fatalf("tid %d: slice at %v before previous end %v", e.TID, e.Ts, last[e.TID])
		}
		last[e.TID] = e.Ts + e.Dur
	}
}

func TestChromeTraceEmptyRecords(t *testing.T) {
	if _, err := ChromeTrace(nil, "x"); err == nil {
		t.Fatal("empty records accepted")
	}
}

func TestChromeTraceThreadNames(t *testing.T) {
	recs := recordedRun(t, core.Baseline())
	data, _ := ChromeTrace(recs, "Baseline")
	tf := parse(t, data)
	names := 0
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			names++
		}
	}
	if names != 8 {
		t.Fatalf("thread_name metadata = %d, want 8", names)
	}
}
