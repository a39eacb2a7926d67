package workload

import (
	"testing"

	"thriftybarrier/internal/core"
)

// TestTable2Calibration verifies that the Baseline barrier imbalance
// measured on the full 64-node machine reproduces Table 2 of the paper
// within a small tolerance, for every application. This is the anchor of
// the whole reproduction: Figures 5 and 6 are functions of this quantity.
func TestTable2Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node calibration in -short mode")
	}
	arch := core.DefaultArch()
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			prog := s.Build(64, 1)
			res := core.Simulate(arch, core.Baseline(), prog, false)
			got := res.Breakdown.SpinFraction()
			want := s.TargetImbalance
			tol := 0.15 * want
			if tol < 0.01 {
				tol = 0.01
			}
			if got < want-tol || got > want+tol {
				t.Errorf("imbalance = %.4f, want %.4f +/- %.4f (Table 2)", got, want, tol)
			}
		})
	}
}

// TestTable2OrderingPreserved verifies the measured imbalances sort in the
// same order as the paper's Table 2 (the property its figures rely on),
// allowing near-ties to swap.
func TestTable2OrderingPreserved(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node runs in -short mode")
	}
	arch := core.DefaultArch()
	var measured []float64
	for _, s := range All() {
		res := core.Simulate(arch, core.Baseline(), s.Build(64, 1), false)
		measured = append(measured, res.Breakdown.SpinFraction())
	}
	for i := 1; i < len(measured); i++ {
		// Allow 1.5pp of slack for adjacent near-ties (FMM/Barnes are 0.6pp
		// apart in the paper itself).
		if measured[i] > measured[i-1]+0.015 {
			t.Errorf("measured imbalance out of Table 2 order at %s: %.4f > %.4f",
				All()[i].Name, measured[i], measured[i-1])
		}
	}
}
