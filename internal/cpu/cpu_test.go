package cpu

import (
	"testing"

	"thriftybarrier/internal/mem/coherence"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/sim"
)

func newCPU(t testing.TB, id int) (*CPU, *coherence.Protocol) {
	t.Helper()
	cfg := coherence.DefaultConfig()
	net := noc.New(noc.DefaultConfig())
	place := dram.NewPlacement(cfg.Nodes, 4096)
	proto := coherence.New(cfg, net, place)
	model := power.DefaultModel()
	return New(id, DefaultConfig(), proto, model, power.TypicalCompute()), proto
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{{IPC: 0, Overlap: 0.4}, {IPC: 2, Overlap: 1.0}, {IPC: 2, Overlap: -0.1}}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestRunSegmentBaseTime(t *testing.T) {
	c, _ := newCPU(t, 0)
	// No refs: duration is exactly instructions/IPC.
	dur := c.RunSegment(0, Segment{Instructions: 2000})
	if dur != 1000 {
		t.Fatalf("duration = %d, want 1000 (2000 insns at IPC 2)", dur)
	}
	if c.Timeline().Time(sim.StateCompute) != 1000 {
		t.Fatal("compute time not charged")
	}
}

func TestRunSegmentMissesAddStall(t *testing.T) {
	c, _ := newCPU(t, 0)
	refs := make([]Ref, 16)
	for i := range refs {
		refs[i] = Ref{Addr: uint64(0x10000 + i*64)}
	}
	cold := c.RunSegment(0, Segment{Instructions: 2000, Refs: refs})
	// Second run: same addresses now cached — much faster.
	warm := c.RunSegment(cold, Segment{Instructions: 2000, Refs: refs})
	if cold <= warm {
		t.Fatalf("cold run (%d) not slower than warm run (%d)", cold, warm)
	}
	if warm != 1000 {
		t.Fatalf("warm run = %d, want pure base time 1000 (all L1 hits)", warm)
	}
}

func TestRunSegmentRefScale(t *testing.T) {
	c1, _ := newCPU(t, 0)
	c2, _ := newCPU(t, 0)
	refs := []Ref{{Addr: 0x40000}}
	d1 := c1.RunSegment(0, Segment{Instructions: 100, Refs: refs, RefScale: 1})
	d2 := c2.RunSegment(0, Segment{Instructions: 100, Refs: refs, RefScale: 10})
	if d2 <= d1 {
		t.Fatalf("scaled segment (%d) not slower than unscaled (%d)", d2, d1)
	}
}

func TestRunSegmentWritesDirtyLines(t *testing.T) {
	c, proto := newCPU(t, 3)
	refs := make([]Ref, 8)
	for i := range refs {
		refs[i] = Ref{Addr: uint64(0x20000 + i*64), Write: true}
	}
	c.RunSegment(0, Segment{Instructions: 100, Refs: refs})
	if proto.DirtyLines(3) != 8 {
		t.Fatalf("dirty lines = %d, want 8", proto.DirtyLines(3))
	}
}

func TestChargeHelpersRouteToStates(t *testing.T) {
	c, _ := newCPU(t, 0)
	m := c.Model()
	s1, _ := m.State(power.Sleep1)
	c.ChargeCompute(100)
	c.ChargeSpin(200)
	c.ChargeTransition(s1, 300)
	c.ChargeSleep(s1, 400)
	tl := c.Timeline()
	for _, tc := range []struct {
		st   sim.State
		want sim.Cycles
	}{
		{sim.StateCompute, 100},
		{sim.StateSpin, 200},
		{sim.StateTransition, 300},
		{sim.StateSleep, 400},
	} {
		if got := tl.Time(tc.st); got != tc.want {
			t.Errorf("%s time = %d, want %d", tc.st, got, tc.want)
		}
	}
	// Sleep energy must be far below spin energy per unit time.
	sleepW := tl.Energy(sim.StateSleep) / 400e-9
	spinW := tl.Energy(sim.StateSpin) / 200e-9
	if sleepW >= spinW {
		t.Fatalf("sleep power %v >= spin power %v", sleepW, spinW)
	}
}

func TestMinimumDuration(t *testing.T) {
	c, _ := newCPU(t, 0)
	if dur := c.RunSegment(0, Segment{Instructions: 0}); dur != 1 {
		t.Fatalf("zero-work segment duration = %d, want 1", dur)
	}
}

// A segment whose one reference misses every cache lasts longer than its
// base cycles: the miss's latency beyond an L1 hit is charged as stall.
func TestColdMissSegmentStalls(t *testing.T) {
	c, _ := newCPU(t, 0)
	dur := c.RunSegment(0, Segment{Instructions: 100, Refs: []Ref{{Addr: 0x80000}}})
	if base := sim.Cycles(100 / DefaultConfig().IPC); dur <= base {
		t.Errorf("cold-miss segment = %d cycles, want more than its %d base cycles", dur, base)
	}
}

func TestRunSegmentDVFSScaling(t *testing.T) {
	c1, _ := newCPU(t, 0)
	c2, _ := newCPU(t, 0)
	seg := Segment{Instructions: 2000}
	full, base1 := c1.RunSegmentDVFS(0, seg, 1.0, 0)
	half, base2 := c2.RunSegmentDVFS(0, seg, 0.5, 0)
	if full != 1000 || half != 2000 {
		t.Fatalf("durations = %d/%d, want 1000/2000", full, half)
	}
	if base1 != base2 {
		t.Fatalf("base-equivalent durations differ: %d vs %d", base1, base2)
	}
	// Energy at half frequency = f^2 = 25% of full-frequency energy.
	e1 := c1.Timeline().Energy(sim.StateCompute)
	e2 := c2.Timeline().Energy(sim.StateCompute)
	ratio := e2 / e1
	if ratio < 0.24 || ratio > 0.26 {
		t.Fatalf("half-frequency energy ratio = %v, want ~0.25", ratio)
	}
}

func TestRunSegmentDVFSMemoryStallUnscaled(t *testing.T) {
	mk := func(f float64) sim.Cycles {
		c, _ := newCPU(t, 0)
		dur, _ := c.RunSegmentDVFS(0, Segment{Instructions: 2000, Refs: []Ref{{Addr: 0x90000}}}, f, 0)
		return dur
	}
	full := mk(1.0)
	half := mk(0.5)
	// Core portion doubles (1000 -> 2000); the memory stall is identical,
	// so the gap is exactly the base time.
	if half-full != 1000 {
		t.Fatalf("stall scaled with frequency: full=%d half=%d", full, half)
	}
}

func TestRunSegmentDVFSBudgetRampsUp(t *testing.T) {
	// 2000 insns = 1000 base cycles; budget 400 at f=0.5: 400/0.5 + 600 =
	// 1400 cycles instead of 2000.
	c, _ := newCPU(t, 0)
	dur, baseEquiv := c.RunSegmentDVFS(0, Segment{Instructions: 2000}, 0.5, 400)
	if dur != 1400 {
		t.Fatalf("budgeted duration = %d, want 1400", dur)
	}
	if baseEquiv != 1000 {
		t.Fatalf("base equivalent = %d, want 1000", baseEquiv)
	}
}

func TestRunSegmentDVFSBadFactorPanics(t *testing.T) {
	c, _ := newCPU(t, 0)
	defer func() {
		if recover() == nil {
			t.Error("factor 0 did not panic")
		}
	}()
	c.RunSegmentDVFS(0, Segment{Instructions: 10}, 0, 0)
}
