package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareDirs reads the untraced result files of two directories and
// prints, for every (workload, end-to-end metric) pair, each side's
// median and quartiles and a verdict against the metric's bound from
// benchmarkPath. It returns exit code 1 if any pair got worse, 0
// otherwise (2 if the inputs cannot be read).
//
// A verdict is "worse" when B's median is worse than A's by more than the
// bound, "better" when it is better by more than A's own quartile spread,
// and "within bound" otherwise. When either side's quartile spread
// exceeds the bound the pair is "unresolved", unless every run of B is
// better (or worse) than every run of A.
func compareDirs(dirA, dirB, benchmarkPath string, w io.Writer) (int, error) {
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return 2, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return 2, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	a, err := loadResults(dirA)
	if err != nil {
		return 2, err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return 2, err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return 2, fmt.Errorf("no workload has untraced results in both %s and %s", dirA, dirB)
	}
	sort.Strings(names)

	code := 0
	fmt.Fprintf(w, "%-14s %-16s %5s %34s %34s %8s  %s\n", "workload", "metric", "runs", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			xa, xb := a[wl][m.Name], b[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			qa, qb := quartiles(xa), quartiles(xb)
			v := verdict(xa, xb, qa, qb, m.Bound, m.Better == "higher")
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-16s %2d/%-2d %34s %34s %+7.1f%%  %s\n", wl, m.Name, len(xa), len(xb),
				fmt.Sprintf("%.6g [%.6g, %.6g]", qa[1], qa[0], qa[2]),
				fmt.Sprintf("%.6g [%.6g, %.6g]", qb[1], qb[0], qb[2]),
				100*(qb[1]-qa[1])/qa[1], v)
		}
	}
	return code, nil
}

// verdict judges B against A; xa and xb are sorted, qa and qb their
// quartiles.
func verdict(xa, xb []float64, qa, qb [3]float64, bound float64, higherBetter bool) string {
	// worse is B's median change in the worse direction, as a share of
	// A's; best and worst are each side's extreme runs, and sign turns
	// "better" into a plain < on the values.
	worse, sign := (qb[1]-qa[1])/qa[1], 1.0
	aBest, aWorst, bBest, bWorst := xa[0], xa[len(xa)-1], xb[0], xb[len(xb)-1]
	if higherBetter {
		worse, sign = -worse, -1
		aBest, aWorst, bBest, bWorst = aWorst, aBest, bWorst, bBest
	}
	spreadA := (qa[2] - qa[0]) / qa[1]
	spreadB := (qb[2] - qb[0]) / qb[1]
	switch {
	case spreadA > bound || spreadB > bound:
		switch {
		case sign*bWorst < sign*aBest:
			return "better"
		case sign*aWorst < sign*bBest:
			return "worse"
		}
		return "unresolved"
	case worse > bound:
		return "worse"
	case -worse > spreadA:
		return "better"
	}
	return "within bound"
}

// loadResults maps workload → metric → values over a directory's
// untraced result files.
func loadResults(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace || r.Workload == "" {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, nil
}
