package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"thriftybarrier/internal/sim"
)

func parallelArch(nodes, regionNodes int) Arch {
	a := DefaultArch().WithNodes(nodes)
	a.Seed = 7
	a.RegionNodes = regionNodes
	return a
}

// statsLine renders Stats deterministically (sorted Sleeps keys).
func statsLine(s Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ep=%d sp=%d yl=%d ew=%d xw=%d lw=%d dis=%d dv=%d df=%016x fl=%d os=%d ph=%d pm=%d su=%d dw=%d tf=%d dt=%d rc=%d ip=%d is=%d",
		s.Episodes, s.Spins, s.Yields, s.EarlyWakes, s.ExternalWakes, s.LateWakes,
		s.Disables, s.DVFSScaled, math.Float64bits(s.DVFSFreqSum), s.FlushLines, s.OracleSleeps,
		s.PredictorHits, s.PredictorMisses, s.SkippedUpdates,
		s.DroppedWakeups, s.TimerFailures, s.DriftedTimers, s.Recoveries,
		s.InjectedPreempts, s.InjectedStalls)
	keys := make([]string, 0, len(s.Sleeps))
	for k := range s.Sleeps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, s.Sleeps[k])
	}
	return b.String()
}

// parallelDigest folds every observable of a ParallelResult — span, event
// count, per-CPU energy and spin residency at full float precision, the
// merged stats, and the episode records when recorded — into one FNV-1a
// word.
func parallelDigest(r ParallelResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "span=%d events=%d\n", r.Span, r.Events)
	for i := range r.PerCPUEnergy {
		fmt.Fprintf(h, "%d %016x %d\n", i, math.Float64bits(r.PerCPUEnergy[i]), r.PerCPUSpin[i])
	}
	fmt.Fprintf(h, "%s\n", statsLine(r.Stats))
	for _, ep := range r.Episodes {
		fmt.Fprintf(h, "%+v\n", ep)
	}
	return h.Sum64()
}

func parallelRun(t *testing.T, arch Arch, opts Options, prog Program, shards int, record bool) ParallelResult {
	t.Helper()
	m, err := NewParallelMachine(arch, opts)
	if err != nil {
		t.Fatalf("NewParallelMachine: %v", err)
	}
	m.SetRecording(record)
	return m.Run(prog, shards)
}

// The load-bearing property of the whole sharded machine: for any shard
// count, a run is bit-identical to the plain sequential engine (shards
// 0). Every configuration family and every topology must hold it, and so
// must the episode records, which come from the root counter's home.
func TestParallelBitIdenticalAcrossShards(t *testing.T) {
	arch := parallelArch(64, 8)
	prog := UniformProgram(0x400, 8, imbalancedWork(150_000, 250_000))

	withTopo := func(o Options, topo Topology, arity int) Options {
		o.Topology = topo
		o.TreeArity = arity
		return o
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"baseline-flat", Baseline()},
		{"thrifty-flat", Thrifty()},
		{"thrifty-tree8", withTopo(Thrifty(), TopologyTree, 8)},
		{"thrifty-noctree", withTopo(Thrifty(), TopologyNoCTree, 0)},
		{"baseline-noctree", withTopo(Baseline(), TopologyNoCTree, 0)},
		{"oracle-flat", OracleHalt()},
		{"unconditional-flat", UnconditionalHalt()},
		{"spinthen-flat", SpinThenHalt()},
		{"timeshare-flat", TimeShare(5 * sim.Microsecond)},
		{"internal-wakeup", func() Options {
			o := Thrifty()
			o.Wakeup = WakeupInternal
			return o
		}()},
		{"dvfs-flat", DVFSReclaim()},
		{"bstdirect-flat", func() Options {
			o := Thrifty()
			o.BSTDirect = true
			return o
		}()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ref := parallelRun(t, arch, tc.opts, prog, 0, true)
			want := parallelDigest(ref)
			if ref.Span == 0 || ref.Events == 0 || len(ref.Episodes) != prog.Phases() {
				t.Fatalf("degenerate reference run: span=%v events=%d records=%d", ref.Span, ref.Events, len(ref.Episodes))
			}
			for _, shards := range []int{1, 2, 4, 8} {
				got := parallelRun(t, arch, tc.opts, prog, shards, true)
				if d := parallelDigest(got); d != want {
					t.Errorf("shards=%d digest %016x != reference %016x (span %v vs %v, events %d vs %d)",
						shards, d, want, got.Span, ref.Span, got.Events, ref.Events)
				}
			}
		})
	}
}

// The sharded machine's stats must agree with physical sense: every
// episode accounted, thrifty actually sleeping, and the predictor active.
func TestParallelThriftySleepsAndPredicts(t *testing.T) {
	arch := parallelArch(64, 8)
	prog := UniformProgram(0x410, 10, imbalancedWork(150_000, 400_000))
	r := parallelRun(t, arch, Thrifty(), prog, 4, false)
	if int(r.Stats.Episodes) != prog.Phases() {
		t.Errorf("episodes = %d, want %d", r.Stats.Episodes, prog.Phases())
	}
	total := 0
	for _, n := range r.Stats.Sleeps {
		total += n
	}
	if total == 0 {
		t.Error("thrifty run recorded no sleeps")
	}
	if r.Stats.PredictorHits+r.Stats.PredictorMisses == 0 {
		t.Error("predictor never consulted")
	}
	base := parallelRun(t, arch, Baseline(), prog, 4, false)
	if r.Breakdown.TotalEnergy() >= base.Breakdown.TotalEnergy() {
		t.Errorf("thrifty energy %.3g not below baseline %.3g", r.Breakdown.TotalEnergy(), base.Breakdown.TotalEnergy())
	}
}

// Records assembled across shards carry the episode skeleton: a release
// per phase, a releaser per phase, and departures at or after the
// release.
func TestParallelRecords(t *testing.T) {
	arch := parallelArch(64, 8)
	prog := UniformProgram(0x420, 4, imbalancedWork(100_000, 300_000))
	m, err := NewParallelMachine(arch, Thrifty())
	if err != nil {
		t.Fatal(err)
	}
	m.SetRecording(true)
	r := m.Run(prog, 4)
	if len(r.Episodes) != prog.Phases() {
		t.Fatalf("episodes = %d, want %d", len(r.Episodes), prog.Phases())
	}
	for _, ep := range r.Episodes {
		if ep.ReleaseAt == 0 {
			t.Fatalf("phase %d: no release recorded", ep.Phase)
		}
		releasers := 0
		for tid, w := range ep.Waits {
			if w.Kind == "release" {
				releasers++
			}
			if ep.Depart[tid] < ep.ReleaseAt {
				t.Errorf("phase %d thread %d departs %v before release %v", ep.Phase, tid, ep.Depart[tid], ep.ReleaseAt)
			}
		}
		if releasers != 1 {
			t.Errorf("phase %d: %d releasers", ep.Phase, releasers)
		}
	}
}

// The home side keeps no state that grows with the program: a counter
// holds one tally, and a flag keeps at most its last released episode and
// the next one, on the sequential engine and across shards alike.
func TestParallelHomeStateBounded(t *testing.T) {
	const cpus, phases = 16, 10_000
	prog := UniformProgram(0x450, phases, imbalancedWork(20_000, 40_000))
	for k := range prog {
		prog[k].PC += uint64(k % 3)
	}
	for _, topo := range []Topology{TopologyFlat, TopologyTree} {
		for _, shards := range []int{0, 4} {
			opts := Thrifty()
			opts.Topology = topo
			if topo == TopologyTree {
				opts.TreeArity = 4
			}
			m, err := NewParallelMachine(parallelArch(cpus, 4), opts)
			if err != nil {
				t.Fatal(err)
			}
			r := m.Run(prog, shards)
			if int(r.Stats.Episodes) != phases {
				t.Fatalf("%v, shards=%d: %d episodes, want %d", topo, shards, r.Stats.Episodes, phases)
			}
			flags := 0
			for _, rg := range m.regions {
				for pc, f := range rg.flags {
					flags++
					if n := len(f.byPhase); n > 2 {
						t.Errorf("%v, shards=%d: flag %#x keeps %d episodes, want at most 2", topo, shards, pc, n)
					}
				}
			}
			if flags != 3 {
				t.Errorf("%v, shards=%d: %d flags, want 3", topo, shards, flags)
			}
		}
	}
}

// White-box: a model whose messaging undercuts the declared lookahead
// must die loudly, not silently reorder. Inflating the machine's
// lookahead far past the NoC minimum forces the first cross-shard
// message inside a window. The violation panics on a shard worker
// goroutine, which kills the process, so the crashing run happens in a
// re-exec'd child.
func TestParallelLookaheadViolationPanics(t *testing.T) {
	if os.Getenv("CORE_LOOKAHEAD_CRASHER") == "1" {
		m, err := NewParallelMachine(parallelArch(64, 8), Baseline())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(3)
		}
		m.lookahead = sim.Cycles(1) << 40
		m.Run(UniformProgram(0x430, 2, imbalancedWork(50_000, 100_000)), 8)
		os.Exit(0) // no panic: the parent will flag it
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestParallelLookaheadViolationPanics$", "-test.v")
	cmd.Env = append(os.Environ(), "CORE_LOOKAHEAD_CRASHER=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("run with inflated lookahead did not crash; output:\n%s", out)
	}
	if !strings.Contains(string(out), "lookahead violation") {
		t.Fatalf("crash without the lookahead-violation panic; output:\n%s", out)
	}
}

func TestNewParallelMachineRejections(t *testing.T) {
	arch := parallelArch(64, 8)
	bad := arch
	bad.RegionNodes = 24
	if _, err := NewParallelMachine(bad, Baseline()); err == nil {
		t.Error("non-power-of-two region size accepted")
	}
	noct := Baseline()
	noct.Topology = TopologyNoCTree
	noct.TreeArity = 4
	if err := noct.Validate(); err == nil {
		t.Error("NoCTree with TreeArity accepted by Validate")
	}
}

// Shard counts beyond the region count clamp instead of fragmenting
// regions across shards.
func TestParallelShardClamp(t *testing.T) {
	arch := parallelArch(16, 8)
	m, err := NewParallelMachine(arch, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run(UniformProgram(0x440, 2, imbalancedWork(50_000, 100_000)), 64)
	if r.Shards != 2 {
		t.Errorf("shards = %d, want clamp to 2 regions", r.Shards)
	}
}

// A node reuses one waiter across its waits, so a message sent for an
// earlier wait must not reach the next one: after a wait departs and the
// node starts waiting at the next barrier, a reply carrying the old
// wait's gen is dropped, as the departed wait's own replies are.
func TestStaleWaitReplyDropped(t *testing.T) {
	m, err := NewParallelMachine(parallelArch(64, 8), Thrifty())
	if err != nil {
		t.Fatal(err)
	}
	m.prog = UniformProgram(0x400, 2, imbalancedWork(1000, 0))
	m.meta(0x400)
	m.shards, m.eng = 1, sim.NewEngine()
	const node = 3
	w := &m.nodes[node].w
	if m.waiter(node, w.gen) != nil {
		t.Fatal("a node that never waited has a live wait")
	}

	m.wait(node, 0, 100)
	first := w.gen
	if m.waiter(node, first) == nil {
		t.Fatal("the wait in progress is not live")
	}
	m.depart(node, 0, w, 200, 0)
	if m.waiter(node, first) != nil {
		t.Fatal("a departed wait is still live")
	}

	m.wait(node, 1, 300)
	if w.gen == first {
		t.Fatalf("the next wait reuses gen %d", first)
	}
	if m.waiter(node, first) != nil {
		t.Fatal("a reply to the departed wait reaches the next one")
	}
	if m.waiter(node, w.gen) == nil {
		t.Fatal("the next wait is not live")
	}
}

// A timer wake is late (§3.3.2) only when the timer fired at or after
// the releaser's timestamp, which the verify reply carries. A timer that
// fired before it is an early wake, even when the flag flipped while the
// CPU was coming up and the verify read finds it flipped.
func TestLateWakeCountedByTimerTime(t *testing.T) {
	const node, release = 3, 1000
	for _, fired := range []sim.Cycles{release - 1, release, release + 1} {
		m, err := NewParallelMachine(parallelArch(8, 8), ThriftyHalt())
		if err != nil {
			t.Fatal(err)
		}
		m.prog = UniformProgram(0x400, 2, imbalancedWork(1000, 0))
		m.meta(0x400)
		m.shards, m.eng = 1, sim.NewEngine()
		m.wait(node, 0, 100)
		w := &m.nodes[node].w
		w.kind, w.firedAt = waitSleep, fired
		m.flagReadReply(node, 0, w, readVerifyTimer, fired+100, fired+200, true, release, release)
		st := m.region(node).stats
		wantLate := fired >= release
		if got := st.LateWakes == 1; got != wantLate || st.LateWakes+st.EarlyWakes != 1 {
			t.Errorf("timer fired at %d, release at %d: late=%d early=%d, want late=%v",
				fired, release, st.LateWakes, st.EarlyWakes, wantLate)
		}
	}
}
