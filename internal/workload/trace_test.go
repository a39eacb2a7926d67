package workload

import (
	"strings"
	"testing"

	"thriftybarrier/internal/core"
)

const sampleTrace = `
# pc, then per-thread compute durations in microseconds
0x100, 100, 110, 105, 380
0x200, 50.5, 52, 49, 51
0x100, 102, 108, 104, 375
0x200, 51, 50, 52.5, 49
`

func TestParseTrace(t *testing.T) {
	phases, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(phases))
	}
	if TraceThreads(phases) != 4 {
		t.Fatalf("threads = %d, want 4", TraceThreads(phases))
	}
	if phases[0].PC != 0x100 || phases[1].PC != 0x200 {
		t.Fatalf("PCs = %#x,%#x", phases[0].PC, phases[1].PC)
	}
	if phases[1].DurationsUS[0] != 50.5 {
		t.Fatalf("fractional duration lost: %v", phases[1].DurationsUS[0])
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []string{
		"",                      // empty
		"0x100",                 // no durations
		"zzz, 10, 10",           // bad pc
		"0x100, ten, 10",        // bad duration
		"0x100, -5, 10",         // non-positive
		"0x100, 10, 10\n0x2, 5", // inconsistent width
	}
	for i, c := range cases {
		if _, err := ParseTrace(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBuildTraceRuns(t *testing.T) {
	phases, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := BuildTrace(phases, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	arch := core.DefaultArch().WithNodes(4)
	out := core.Simulate(arch, core.Baseline(), prog, false)
	if out.Stats.Episodes != 4 {
		t.Fatalf("episodes = %d, want 4", out.Stats.Episodes)
	}
	// Thread 3 lags barrier 0x100 by ~270us: measurable imbalance.
	if out.Breakdown.SpinFraction() < 0.10 {
		t.Fatalf("trace imbalance = %v, want the 0x100 straggler visible", out.Breakdown.SpinFraction())
	}
}

func TestBuildTraceDurationFidelity(t *testing.T) {
	// A single-phase trace: the simulated compute duration must match the
	// traced microseconds at the configured IPC.
	phases, _ := ParseTrace(strings.NewReader("1, 100, 100"))
	prog, _ := BuildTrace(phases, 2.0)
	seg := prog.Phase(0).Segment(0)
	// 100us at 1GHz = 100_000 cycles; at IPC 2 that is 200_000 insns.
	if seg.Instructions != 200_000 {
		t.Fatalf("instructions = %d, want 200000", seg.Instructions)
	}
}

func TestBuildTraceBadIPC(t *testing.T) {
	phases, _ := ParseTrace(strings.NewReader("1, 10, 10"))
	if _, err := BuildTrace(phases, 0); err == nil {
		t.Fatal("IPC 0 accepted")
	}
}
