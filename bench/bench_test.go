package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestDeclarationsMatchBenchmarkJSON pins the workloads and every metric's
// name, unit and direction to BENCHMARK.json, in both directions.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit, Better string }
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, "|"), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code declares %s", got, want)
	}
	same := func(kind string, file []decl, code []metric) {
		inFile := map[string]decl{}
		for _, d := range file {
			inFile[d.Name] = d
		}
		inCode := map[string]bool{}
		for _, m := range code {
			inCode[m.name] = true
			d, ok := inFile[m.name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is emitted but missing from BENCHMARK.json", kind, m.name)
			case d.Unit != m.unit || d.Better != m.better:
				t.Errorf("%s metric %s: BENCHMARK.json says %s/%s, code %s/%s", kind, m.name, d.Unit, d.Better, m.unit, m.better)
			}
		}
		for _, d := range file {
			if !inCode[d.Name] {
				t.Errorf("%s metric %s is in BENCHMARK.json but never emitted", kind, d.Name)
			}
		}
	}
	same("end-to-end", bf.EndToEnd, endToEnd)
	same("per-layer", bf.PerLayer, perLayer)
}

// TestWorkloadsSmoke runs every workload at a tiny size: a studies subset
// with no matrix, core-256 at 64 CPUs, and 0.3 s of rounds. Each run's
// output checks must pass — except thriftyd-pipe's, whose server can
// deadlock (README.md, "First finding") — and it must print exactly the
// declared metrics, with units, on a JSON last line. barrier-park runs
// traced, which covers the per-layer metrics and every probe.
func TestWorkloadsSmoke(t *testing.T) {
	// The two parallel-engine probes use testing.Benchmark.
	if err := flag.Set("test.benchtime", "50ms"); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		name := w.name
		t.Run(name, func(t *testing.T) {
			cfg := config{
				workload: name,
				seed:     1,
				seconds:  300 * time.Millisecond,
				trace:    name == "barrier-park",
				out:      t.TempDir(),
				root:     "..",
				smoke:    true,
			}
			var out bytes.Buffer
			res, err := execute(cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			if name != "thriftyd-pipe" && !res.Correct {
				t.Errorf("output checks failed: %d of %d attempts: %v", res.Failed, res.Attempted, res.Errors)
			}

			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := line[k]; !ok {
					t.Errorf("result line lacks %q", k)
				}
			}
			if len(line) != 4 {
				t.Errorf("result line has %d keys, want 4", len(line))
			}
			var metrics map[string]value
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			decl := endToEnd
			if cfg.trace {
				decl = perLayer
			}
			if len(metrics) != len(decl) {
				t.Errorf("printed %d metrics, want %d", len(metrics), len(decl))
			}
			for _, m := range decl {
				v, ok := metrics[m.name]
				switch {
				case !ok:
					t.Errorf("metric %s not printed", m.name)
				case v.Unit != m.unit:
					t.Errorf("metric %s printed in %s, want %s", m.name, v.Unit, m.unit)
				case !cfg.trace && (v.Value <= 0 || math.IsInf(v.Value, 0)):
					// An end-to-end metric is never 0: a zero means the
					// workload did not produce it.
					t.Errorf("end-to-end metric %s = %v", m.name, v.Value)
				}
			}
			if cfg.trace {
				for _, p := range []string{"sim.", "coherence.", "cpu.", "predict.", "thrifty.arrive", "wheel.arm", "wheel.fire",
					"remote.codec", "remote.server_rtt", "client.wait1"} {
					for name, v := range metrics {
						if strings.HasPrefix(name, p) && v.Value <= 0 {
							t.Errorf("probe metric %s = %v", name, v.Value)
						}
					}
				}
				var tiers float64
				for _, tier := range []string{"spin", "yield", "timed-park", "park"} {
					tiers += metrics["thrifty.tier_frac."+tier].Value
				}
				if math.Abs(tiers-1) > 1e-9 {
					t.Errorf("tier fractions sum to %v, want 1", tiers)
				}
				for _, f := range []string{name + ".spans.json", name + ".cpu.pprof"} {
					if st, err := os.Stat(cfg.out + "/" + f); err != nil || st.Size() == 0 {
						t.Errorf("traced run wrote no %s: %v", f, err)
					}
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMeanBeyond(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 0.9, 10},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 0.75, 9},
		{[]float64{3, 1, 2}, 0.99, 3},
		{nil, 0.9, 0},
	} {
		if got := meanBeyond(tc.xs, tc.q); got != tc.want {
			t.Errorf("meanBeyond(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	runs := func(median float64) []float64 {
		return []float64{median * 0.99, median, median * 1.01, median * 1.02}
	}
	for _, tc := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{"same", runs(100), runs(100), false, "within bound"},
		{"slower", runs(100), runs(120), false, "worse"},
		{"faster", runs(100), runs(80), false, "better"},
		{"fewer ops", runs(100), runs(80), true, "worse"},
		{"noisy", []float64{50, 100, 150, 200}, []float64{60, 110, 160, 210}, false, "unresolved"},
		{"noisy but disjoint", []float64{50, 100, 150, 200}, []float64{300, 400, 500, 600}, false, "worse"},
	} {
		qa, qb := quartiles(tc.a), quartiles(tc.b)
		if got := verdict(tc.a, tc.b, qa, qb, 0.1, tc.higherBetter); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
