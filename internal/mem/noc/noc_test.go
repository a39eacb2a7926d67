package noc

import (
	"testing"
	"testing/quick"

	"thriftybarrier/internal/sim"
)

func TestDefaultConfigIsTable1(t *testing.T) {
	c := DefaultConfig()
	if c.Nodes != 64 {
		t.Errorf("nodes = %d, want 64", c.Nodes)
	}
	if c.PinToPin != 16*sim.Nanosecond || c.Endpoint != 16*sim.Nanosecond {
		t.Errorf("latencies %v/%v, want 16ns/16ns", c.PinToPin, c.Endpoint)
	}
	if c.FlitBytes != 16 {
		t.Errorf("flit width = %d, want 16", c.FlitBytes)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Nodes: 0, FlitBytes: 16},
		{Nodes: 48, FlitBytes: 16},
		{Nodes: 64, FlitBytes: 0},
		{Nodes: 64, FlitBytes: 16, PinToPin: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestDimension(t *testing.T) {
	if d := New(DefaultConfig()).Dimension(); d != 6 {
		t.Fatalf("64-node hypercube dimension = %d, want 6", d)
	}
}

func TestHops(t *testing.T) {
	n := New(DefaultConfig())
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 2},
		{0, 63, 6},
		{21, 42, 6}, // 010101 vs 101010
		{5, 4, 1},
	}
	for _, tc := range cases {
		if got := n.Hops(tc.a, tc.b); got != tc.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLatencyLocalIsZero(t *testing.T) {
	n := New(DefaultConfig())
	if l := n.Latency(7, 7, 64); l != 0 {
		t.Fatalf("self-message latency = %v, want 0", l)
	}
}

func TestLatencySingleHopControlMessage(t *testing.T) {
	n := New(DefaultConfig())
	// 1 hop, 1 flit: 16 (marshal) + 16 (hop) + 16 (unmarshal) = 48 ns.
	if l := n.Latency(0, 1, 8); l != 48*sim.Nanosecond {
		t.Fatalf("1-hop control latency = %v, want 48ns", l)
	}
}

func TestLatencyCacheLinePayload(t *testing.T) {
	n := New(DefaultConfig())
	// 64B = 4 flits; 3 extra flits * 4ns = 12ns over the control latency.
	ctrl := n.Latency(0, 1, 8)
	data := n.Latency(0, 1, 64)
	if data-ctrl != 12*sim.Nanosecond {
		t.Fatalf("payload serialization = %v, want 12ns", data-ctrl)
	}
}

func TestMaxLatency(t *testing.T) {
	n := New(DefaultConfig())
	// Antipodal: 6 hops. 32 + 6*16 = 128 ns for a control message.
	if l := n.MaxLatency(8); l != 128*sim.Nanosecond {
		t.Fatalf("max control latency = %v, want 128ns", l)
	}
}

func TestLatencySymmetryProperty(t *testing.T) {
	n := New(DefaultConfig())
	f := func(a, b uint8, payload uint8) bool {
		x, y := int(a%64), int(b%64)
		return n.Latency(x, y, int(payload)) == n.Latency(y, x, int(payload))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyTriangleProperty(t *testing.T) {
	// Hop metric obeys the triangle inequality on a hypercube.
	n := New(DefaultConfig())
	f := func(a, b, c uint8) bool {
		x, y, z := int(a%64), int(b%64), int(c%64)
		return n.Hops(x, z) <= n.Hops(x, y)+n.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeRangePanics(t *testing.T) {
	n := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range node did not panic")
		}
	}()
	n.Hops(0, 64)
}
