// Command bench is the repository's benchmark: one workload per process,
// from the paper-reproduction studies down to the goroutine barrier and
// the thriftyd service.
//
// A run sets its workload up several times (the median is setup_s),
// measures it untraced for -seconds, checks its outputs, and prints every
// end-to-end metric by name and unit; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
// With -trace 1 it then reruns the workload traced (spans and a CPU
// profile go to -out), runs each layer's isolated probes, and prints the
// per-layer metrics instead. Every run also stores a result file with
// its provenance in -out; -compare A B compares two directories of them.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload barrier-park --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh --workload studies --trace 1
//	bash bench/run.sh -compare before/ after/
//
// README.md gives the workloads, the metrics and the first baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
	// root is the repository root, where results/ holds the committed
	// artifacts the output checks compare against.
	root string
	// smoke shrinks every workload to a size the -race smoke test can
	// afford.
	smoke bool
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the workload for at least d (and at least one pass),
	// checking its outputs into the ledger. tr is nil on an untraced run;
	// parent is the span the phase's spans hang under.
	measure(d time.Duration, tr *tracer, parent int) measurement
	// close stops the instance's goroutines and connections.
	close()
}

// measurement is one measured phase of a workload, set-up excluded.
type measurement struct {
	ops  float64       // operations completed
	wall time.Duration // wall-clock of the phase
	cpu  time.Duration // process CPU of the phase, the stragglers' compute excluded
	lat  []float64     // latency samples in µs
	// tailQ is the percentile latency_tail_us reports; a phase collects
	// at least tailSamples(tailQ) latencies. With tailMean it reports the
	// mean of the latencies beyond that percentile instead: a workload of
	// few, long operations, whose percentile would sit on whichever one
	// operation lands at that rank, reports its slowest share as a whole.
	tailQ    float64
	tailMean bool
	// layers are the per-layer metrics the phase itself exposes.
	layers map[string]float64
}

func (m measurement) opsPerSecond() float64 { return m.ops / m.wall.Seconds() }

// tail is latency_tail_us.
func (m measurement) tail() float64 {
	if m.tailMean {
		return meanBeyond(m.lat, m.tailQ)
	}
	return percentile(m.lat, m.tailQ)
}

// tailSamples is how many latencies a phase must collect for the q
// percentile to have ten beyond it; a workload that makes few, long
// operations measures past -seconds until it has them. The smoke test
// asks for no minimum.
func (cfg *config) tailSamples(q float64) int {
	if cfg.smoke {
		return 1
	}
	return int(math.Ceil(10 / (1 - q)))
}

// workloadSpec is one entry of the benchmark's workload table.
type workloadSpec struct {
	name  string
	setup func(cfg *config, l *ledger) (instance, error)
	// stall is the watchdog limit: a run with no operation finishing for
	// this long is wedged.
	stall time.Duration
}

// workloads are the benchmark's workloads, in BENCHMARK.json's order;
// it and README.md say why each was chosen.
var workloads = []workloadSpec{
	{"studies", setupStudies, 90 * time.Second},
	{"core-256", setupCore, 60 * time.Second},
	{"barrier-spin", setupBarrierSpin, 10 * time.Second},
	{"barrier-park", setupBarrierPark, 10 * time.Second},
	{"thriftyd-pipe", setupThriftyd, 10 * time.Second},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

// result is what a run prints and stores.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Host      host             `json:"host"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Samples   int              `json:"samples"`
	TailQ     float64          `json:"tail_percentile"`
	TailMean  bool             `json:"tail_mean"`
	Metrics   map[string]value `json:"metrics"`
	Errors    []string         `json:"errors,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "how long the run measures")
		trace   = flag.Int("trace", 0, "0 = report the end-to-end metrics; 1 = rerun traced and report the per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result files, spans, profiles and goroutine dumps")
		compare = flag.String("compare", "", "compare the result files in this directory with those in the directory given as the argument")
	)
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			usage("-compare A B takes exactly one more directory")
		}
		code, err := compareDirs(*compare, flag.Arg(0), "BENCHMARK.json", os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(code)
	}
	if _, ok := lookupWorkload(*name); !ok {
		usage("unknown -workload %q (want %s)", *name, workloadNames())
	}
	if *seconds <= 0 {
		usage("bad -seconds %v (want > 0)", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		usage("bad -trace %d (want 0 or 1)", *trace)
	}
	if _, err := os.Stat(filepath.Join("results", "core_scaling_256.txt")); err != nil {
		// Run from anywhere but the root of a full checkout, the output
		// checks have nothing to compare against.
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		out:      *out,
		root:     ".",
	}
	res, err := execute(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if err := store(cfg, res); err != nil {
		fatal(err)
	}
}

// execute runs one workload and prints its metrics, the JSON line last.
func execute(cfg config, stdout io.Writer) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	w, _ := lookupWorkload(cfg.workload)
	l := &ledger{}
	newResult := func() *result {
		return &result{
			Workload:  cfg.workload,
			Seed:      cfg.seed,
			Seconds:   cfg.seconds.Seconds(),
			Trace:     cfg.trace,
			Host:      hostInfo(),
			Attempted: l.attempted.Load(),
			Failed:    l.failed.Load(),
			Errors:    l.errors(),
		}
	}
	dump := filepath.Join(cfg.out, fmt.Sprintf("%s.seed%d.goroutines.txt", cfg.workload, cfg.seed))
	stopWatch := watch(l, w.stall, dump, func() {
		res := newResult()
		res.Metrics = map[string]value{}
		emit(res, stdout)
	})
	defer stopWatch()

	var inst instance
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(&cfg, l); err != nil {
			return nil, fmt.Errorf("set up %s: %w", cfg.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}

	plain := inst.measure(cfg.seconds, nil, -1)
	vals := map[string]float64{}
	decl := endToEnd
	var err error
	if !cfg.trace {
		lat := plain.lat
		vals["setup_s"] = median(setupTimes)
		vals["ops_per_s"] = plain.opsPerSecond()
		vals["latency_p50_us"] = percentile(lat, 0.5)
		vals["latency_tail_us"] = plain.tail()
		vals["cpu_us_per_op"] = float64(plain.cpu.Nanoseconds()) / 1e3 / plain.ops
		vals["max_rss_mb"] = maxRSSMB()
	} else {
		decl = perLayer
		err = traced(&cfg, inst, plain, vals)
	}
	// Closed before the result prints: a close that hangs is a wedge,
	// and the watchdog reports it instead.
	inst.close()
	if err != nil {
		return nil, err
	}

	res := newResult()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Samples = len(plain.lat)
	res.TailQ = plain.tailQ
	res.TailMean = plain.tailMean
	res.Metrics = collect(decl, vals)
	emit(res, stdout)
	return res, nil
}

// traced reruns the workload with spans and a CPU profile, runs the
// isolated probes, and fills vals with the per-layer metrics.
func traced(cfg *config, inst instance, plain measurement, vals map[string]float64) error {
	prof, err := os.Create(filepath.Join(cfg.out, cfg.workload+".cpu.pprof"))
	if err != nil {
		return err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return err
	}
	tr := newTracer(cfg.workload)
	root := tr.begin(cfg.workload, -1)
	m := inst.measure(cfg.seconds, tr, root)
	tr.end(root)
	probeRoot := tr.begin("probes", -1)
	probes, err := runProbes(cfg, tr, probeRoot)
	tr.end(probeRoot)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	for k, v := range m.layers {
		vals[k] = v
	}
	for k, v := range probes {
		vals[k] = v
	}
	// Positive when tracing slowed the workload down.
	vals["trace_overhead_pct"] = 100 * (plain.opsPerSecond()/m.opsPerSecond() - 1)
	if err := tr.write(cfg.out); err != nil {
		return err
	}
	return prof.Close()
}

// emit prints one line per metric and then the JSON result line.
func emit(res *result, w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d %s cpu=%q rev=%s\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Host.Nproc, res.Host.GOMAXPROCS,
		res.Host.GoVersion, res.Host.CPUModel, res.Host.Revision)
	decl := endToEnd
	if res.Trace {
		decl = perLayer
	}
	for _, m := range decl {
		if v, ok := res.Metrics[m.name]; ok {
			fmt.Fprintf(w, "%-42s %16.6f %s\n", m.name, v.Value, v.Unit)
		}
	}
	tail := fmt.Sprintf("p%g", 100*res.TailQ)
	if res.TailMean {
		tail = "mean-beyond-" + tail
	}
	fmt.Fprintf(w, "# samples=%d tail=%s attempted=%d failed=%d\n", res.Samples, tail, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintln(w, "# error:", e)
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// store writes the result file: <out>/<workload>.seed<n>[.trace].json.
func store(cfg config, res *result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	suffix := ""
	if cfg.trace {
		suffix = ".trace"
	}
	return os.WriteFile(filepath.Join(cfg.out, fmt.Sprintf("%s.seed%d%s.json", cfg.workload, cfg.seed, suffix)), data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
