package main

import (
	"math"
	"sort"
)

// metric declares one reported metric. BENCHMARK.json repeats every name
// and unit; the smoke test keeps the two in step in both directions.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the repository sees. Every untraced
// run reports all of them, so each has a meaning on every workload
// (README.md spells it out per workload): an "op" is a Runner job on
// studies, a simulated event on core-256 and a barrier round on the
// round workloads; a latency is one job, one Baseline+Thrifty pair of
// runs, or one waiter's release-to-return wake-up.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_tail_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, one group per module. A layer a
// workload does not exercise reports 0 there; README.md maps each metric
// to the end-to-end metric and workload it should move.
var perLayer = []metric{
	{"harness.job_s.matrix", "s", "lower"},
	{"harness.job_s.ablations", "s", "lower"},
	{"harness.job_s.sensitivity", "s", "lower"},
	{"harness.job_s.scaling", "s", "lower"},
	{"harness.job_s.core_scaling", "s", "lower"},
	{"harness.job_s.other", "s", "lower"},
	{"harness.critical_job_s", "s", "lower"},
	{"harness.pool_busy_frac", "ratio", "higher"},

	{"core.events", "count", "lower"},
	{"core.allocs_per_event", "count", "lower"},
	{"core.gc_cycles_per_pair", "count", "lower"},
	{"core.baseline_ns_per_event", "ns", "lower"},
	{"core.thrifty_ns_per_event", "ns", "lower"},
	{"core.sharded_ns_per_event", "ns", "lower"},
	{"core.predictor_hit_frac", "ratio", "higher"},
	{"core.setup_ms", "ms", "lower"},

	{"sim.engine.ns_per_op", "ns", "lower"},
	{"sim.parallel.ns_per_event.shards-1", "ns", "lower"},
	{"sim.parallel.ns_per_event.shards-nproc", "ns", "lower"},

	{"coherence.read_hit_ns", "ns", "lower"},
	{"coherence.remote_fill_ns", "ns", "lower"},
	{"coherence.inval_fanout_ns", "ns", "lower"},
	{"cpu.segment_ns", "ns", "lower"},

	{"predict.predict_ns", "ns", "lower"},
	{"predict.update_ns", "ns", "lower"},

	{"thrifty.arrive_release_ns", "ns", "lower"},
	{"thrifty.tier_frac.spin", "ratio", "lower"},
	{"thrifty.tier_frac.yield", "ratio", "lower"},
	{"thrifty.tier_frac.timed-park", "ratio", "higher"},
	{"thrifty.tier_frac.park", "ratio", "higher"},
	{"thrifty.disabled_sites", "count", "lower"},
	{"thrifty.cutoff_hits_per_kround", "count", "lower"},
	{"thrifty.early_wake_frac", "ratio", "lower"},

	{"wheel.arm_cancel_ns", "ns", "lower"},
	{"wheel.fire_late_us.p50", "us", "lower"},
	{"wheel.fire_late_us.p99", "us", "lower"},
	{"wheel.fired_per_round", "count", "lower"},
	{"wheel.cancelled_per_round", "count", "lower"},
	{"wheel.steals_per_round", "count", "lower"},

	{"remote.codec_ns", "ns", "lower"},
	{"remote.server_rtt_us.p50", "us", "lower"},
	{"remote.server_rtt_us.p99", "us", "lower"},
	{"remote.dup_registrations_per_round", "count", "lower"},
	{"remote.replays_per_round", "count", "lower"},
	{"remote.shed_per_round", "count", "lower"},
	{"remote.bad_frames", "count", "lower"},

	{"client.wait1_us.p50", "us", "lower"},
	{"client.overhead_us.p50", "us", "lower"},

	{"trace_overhead_pct", "%", "lower"},
}

// value is one metric as printed: the number with all its digits, and
// its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks the declared metrics out of vals, in declaration order. A
// metric the run did not produce, or produced as NaN or ±Inf (which JSON
// cannot carry), reads 0.
func collect(decl []metric, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(decl))
	for _, m := range decl {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = value{Value: v, Unit: m.unit}
	}
	return out
}

// percentile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between closest ranks. It sorts xs in place; an empty xs
// yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// meanBeyond returns the mean of the largest ⌈(1−q)·n⌉ of xs (at least
// one): the samples beyond the q-quantile. It sorts xs in place; an empty
// xs yields 0.
func meanBeyond(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil((1 - q) * float64(len(xs))))
	if k < 1 {
		k = 1
	}
	var sum float64
	for _, x := range xs[len(xs)-k:] {
		sum += x
	}
	return sum / float64(k)
}

// quartiles returns the first quartile, the median and the third
// quartile of xs by the method of Python's statistics.quantiles(xs, n=4)
// (its default, "exclusive"), the one the benchmark's spread criterion is
// stated in. It sorts xs in place; fewer than two values yield that value
// three times.
func quartiles(xs []float64) [3]float64 {
	sort.Float64s(xs)
	switch len(xs) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	n, m := 4, len(xs)+1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(xs)-1 {
			j = len(xs) - 1
		}
		delta := i*m - j*n
		q[i-1] = (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / float64(n)
	}
	return q
}
