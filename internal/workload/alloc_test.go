//go:build !race

package workload

import "testing"

// The allocation guard builds without the race detector, whose
// instrumentation allocates on its own.

// A built application's segments are windows of its per-program
// reference tables: generating one allocates nothing, for any phase or
// thread.
func TestSegmentZeroAllocs(t *testing.T) {
	for _, s := range All() {
		prog := s.Build(64, 1)
		for _, k := range []int{0, prog.Phases() / 2, prog.Phases() - 1} {
			phase := prog.Phase(k)
			th := 0
			if n := testing.AllocsPerRun(100, func() {
				phase.Segment(th % 64)
				th++
			}); n != 0 {
				t.Errorf("%s phase %d: %v allocations per segment, want 0", s.Name, k, n)
			}
		}
	}
}
