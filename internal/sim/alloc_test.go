//go:build !race

package sim

import "testing"

// The allocation guards build without the race detector, whose
// instrumentation allocates on its own.

// counter is a Handler that counts its events.
type counter struct{ n int }

func (c *counter) Fire(Msg) { c.n++ }

// Scheduling and firing an event allocates nothing in steady state,
// whether it is a typed message or a callback converted by At.
func TestEventPathZeroAllocs(t *testing.T) {
	e := NewEngine()
	h := &counter{}
	fn := func() { h.n++ }
	// Warm up to the high-water mark.
	for i := 0; i < 64; i++ {
		e.AtMsg(Cycles(i), uint64(i), h, Msg{})
	}
	e.Run()
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"AtMsg", func() { e.AtMsg(e.Now()+5, 7, h, Msg{Kind: 1, A: 2, T0: 3}) }},
		{"At", func() { e.At(e.Now()+5, fn) }},
	} {
		avg := testing.AllocsPerRun(1000, func() {
			tc.op()
			e.Step()
		})
		if avg != 0 {
			t.Errorf("%s+Step allocated %v times per event", tc.name, avg)
		}
	}
	if h.n != 64+2*1001 {
		t.Fatalf("fired %d events, want %d", h.n, 64+2*1001)
	}
}
