package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/harness"
)

// coreMachine is core-256: the CC-NUMA machine of the sharded core study
// at 256 CPUs on the NoC-matched tree, running the core-scaling program
// under Baseline and Thrifty in turn. All of its cost is engine dispatch,
// coherence and prediction; there is no Runner in the way.
//
// The timed runs use the sequential engine (Run with shards = 0, the
// golden reference). Every program also runs once per variant on one
// engine shard per CPU, untimed, and every timed run must reproduce that
// run bit for bit. On a 2-vCPU VM the sharded engine's cost per event
// swings by 2x within tens of minutes, with how fast the hypervisor wakes
// the other vCPU at each window barrier; the sequential engine's moves by
// about a fifth. Its cost is reported per layer instead.
//
// One program's cost per event also moves by about 13% from seed to seed,
// so a run cycles through corePrograms programs drawn from its seed and
// reports their aggregate; program 0 is the seed's own.
type coreMachine struct {
	cfg    *config
	progs  []coreProgram
	shards int
	l      *ledger
	// referenced is set once every program has its sharded reference;
	// parWall and parEvents are those reference runs' totals.
	referenced bool
	parWall    time.Duration
	parEvents  uint64
}

// corePrograms is how many programs one core-256 run cycles through.
const corePrograms = 8

// coreProgram is one program and the Baseline and Thrifty rows every run
// of it must reproduce exactly: those of its run on the sharded engine,
// which at seed 1 must in turn be the committed
// results/core_scaling_<cpus>.txt rows.
type coreProgram struct {
	arch core.Arch
	prog core.Program
	want [2]coreRow
}

// coreRow is what a run must reproduce exactly.
type coreRow struct {
	events uint64
	span   string
	digest string
}

// coreVariants are Baseline and Thrifty on the NoC-matched tree.
var coreVariants = [2]func() core.Options{core.Baseline, core.Thrifty}

func setupCore(cfg *config, l *ledger) (instance, error) {
	cpus, n := 256, corePrograms
	if cfg.smoke {
		cpus, n = 64, 2
	}
	c := &coreMachine{cfg: cfg, shards: runtime.NumCPU(), l: l}
	for i := 0; i < n; i++ {
		seed := cfg.seed + uint64(i)<<32
		arch := core.DefaultArch().WithNodes(cpus)
		arch.Seed = seed
		arch.RegionNodes = 8
		c.progs = append(c.progs, coreProgram{arch: arch, prog: harness.CoreScalingProgram(seed, cpus, 24)})
	}
	// Set-up also builds one machine per variant: the construction every
	// measured run pays outside its timing.
	for v := range coreVariants {
		if _, err := c.machine(0, v); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *coreMachine) machine(p, v int) (*core.ParallelMachine, error) {
	opts := coreVariants[v]()
	opts.Topology = core.TopologyNoCTree
	return core.NewParallelMachine(c.progs[p].arch, opts)
}

// reference runs every program once per variant on the sharded engine,
// untimed as far as the end-to-end metrics go.
func (c *coreMachine) reference() {
	for p := range c.progs {
		for v := range coreVariants {
			m, err := c.machine(p, v)
			if err != nil {
				c.l.mismatch("reference machine: %v", err)
				continue
			}
			runtime.GC()
			start := time.Now()
			res := m.Run(c.progs[p].prog, c.shards)
			c.parWall += time.Since(start)
			c.parEvents += res.Events
			c.progs[p].want[v] = rowOf(res)
		}
	}
	if c.cfg.seed == 1 {
		cpus := c.progs[0].arch.Nodes
		path := filepath.Join(c.cfg.root, "results", fmt.Sprintf("core_scaling_%d.txt", cpus))
		want, err := committedCoreRows(path)
		if err != nil {
			c.l.mismatch("%v", err)
		} else if want != c.progs[0].want {
			c.l.mismatch("sharded runs %+v differ from %s %+v", c.progs[0].want, path, want)
		}
	}
	c.referenced = true
}

func (c *coreMachine) measure(d time.Duration, tr *tracer, parent int) measurement {
	if !c.referenced {
		c.reference()
	}
	m := measurement{tailQ: 0.75}
	var (
		runWall       [2]time.Duration
		events        [2]uint64
		hits, lookups uint64
		mallocs, gcs  uint64
		builds        []float64
		ms0, ms1      runtime.MemStats
	)
	start := time.Now()
	pairs := 0
	// A measurement ends on a whole cycle of the programs, so every run
	// weighs each program alike.
	for pairs == 0 || pairs%len(c.progs) != 0 || pairs < c.cfg.tailSamples(m.tailQ) || time.Since(start) < d {
		p := pairs % len(c.progs)
		var pair time.Duration
		for v := range coreVariants {
			c.l.begin(1)
			t := time.Now()
			id := tr.begin("core.NewParallelMachine", parent)
			mach, err := c.machine(p, v)
			tr.end(id)
			builds = append(builds, float64(time.Since(t).Nanoseconds())/1e6)
			if err != nil {
				c.l.end(err)
				continue
			}
			// Each run starts on a collected heap, as a testing.B
			// benchmark does, so no run pays for its predecessor's garbage.
			runtime.GC()
			if tr != nil {
				runtime.ReadMemStats(&ms0)
			}
			cpu0 := processCPU()
			id = tr.begin("core.ParallelMachine.Run", parent)
			t = time.Now()
			res := mach.Run(c.progs[p].prog, 0)
			wall := time.Since(t)
			tr.end(id)
			m.cpu += processCPU() - cpu0
			if tr != nil {
				runtime.ReadMemStats(&ms1)
				mallocs += ms1.Mallocs - ms0.Mallocs
				gcs += uint64(ms1.NumGC - ms0.NumGC)
			}
			pair += wall
			runWall[v] += wall
			events[v] += res.Events
			if v == 1 {
				hits += res.Stats.PredictorHits
				lookups += res.Stats.PredictorHits + res.Stats.PredictorMisses
			}
			c.l.end(c.check(p, v, res))
		}
		m.lat = append(m.lat, float64(pair.Nanoseconds())/1e3)
		pairs++
	}
	total := events[0] + events[1]
	m.ops = float64(total)
	m.wall = runWall[0] + runWall[1]
	m.layers = map[string]float64{
		"core.events":                float64(total) / float64(pairs),
		"core.allocs_per_event":      ratio(float64(mallocs), float64(total)),
		"core.gc_cycles_per_pair":    float64(gcs) / float64(pairs),
		"core.baseline_ns_per_event": ratio(float64(runWall[0].Nanoseconds()), float64(events[0])),
		"core.thrifty_ns_per_event":  ratio(float64(runWall[1].Nanoseconds()), float64(events[1])),
		"core.sharded_ns_per_event":  ratio(float64(c.parWall.Nanoseconds()), float64(c.parEvents)),
		"core.predictor_hit_frac":    ratio(float64(hits), float64(lookups)),
		"core.setup_ms":              median(builds),
	}
	return m
}

// check compares a run of program p with its expected row.
func (c *coreMachine) check(p, v int, res core.ParallelResult) error {
	if got, want := rowOf(res), c.progs[p].want[v]; got != want {
		return fmt.Errorf("%s run of program %d: events/span/digest %d/%s/%s, want %d/%s/%s", coreVariants[v]().Name, p,
			got.events, got.span, got.digest, want.events, want.span, want.digest)
	}
	return nil
}

func (c *coreMachine) close() {}

func rowOf(res core.ParallelResult) coreRow {
	return coreRow{events: res.Events, span: res.Span.String(), digest: perCPUDigest(res)}
}

// perCPUDigest folds every CPU's energy and spin residency into one hash,
// bit for bit — the PerCPU column of the core-scaling artifacts.
func perCPUDigest(res core.ParallelResult) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range res.PerCPUEnergy {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e))
		h.Write(buf[:])
	}
	for _, s := range res.PerCPUSpin {
		binary.LittleEndian.PutUint64(buf[:], uint64(s))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// committedCoreRows reads the noc-tree Baseline and Thrifty rows of a
// committed core-scaling artifact, e.g.
//
//	noc tree  Baseline  1.000  1.0000  7.306ms  0  0  0  0  0  52312  37293d40656b26af
func committedCoreRows(path string) ([2]coreRow, error) {
	var rows [2]coreRow
	data, err := os.ReadFile(path)
	if err != nil {
		return rows, err
	}
	found := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 13 || f[0] != "noc" || f[1] != "tree" {
			continue
		}
		v := 0
		if f[2] == core.Thrifty().Name {
			v = 1
		}
		events, err := strconv.ParseUint(f[11], 10, 64)
		if err != nil {
			return rows, fmt.Errorf("%s: %w", path, err)
		}
		rows[v] = coreRow{events: events, span: f[5], digest: f[12]}
		found |= 1 << v
	}
	if found != 3 {
		return rows, fmt.Errorf("%s: no noc-tree Baseline and Thrifty rows", path)
	}
	return rows, nil
}
