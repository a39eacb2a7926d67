package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"thriftybarrier/internal/core"
	"thriftybarrier/internal/cpu"
	"thriftybarrier/internal/harness"
	"thriftybarrier/internal/harness/microbench"
	"thriftybarrier/internal/mem/coherence"
	"thriftybarrier/internal/mem/dram"
	"thriftybarrier/internal/mem/noc"
	"thriftybarrier/internal/power"
	"thriftybarrier/internal/predict"
	"thriftybarrier/internal/remote"
	"thriftybarrier/internal/sim"
	"thriftybarrier/internal/wheel"
	"thriftybarrier/thrifty"
	"thriftybarrier/thrifty/client"
)

// probeBatches is how many timed batches a probe runs; it reports the
// median batch.
const probeBatches = 5

// runProbes measures each layer in isolation, in the shapes of the
// layer's own benchmarks, one span per probe. The probes do not depend on
// the workload; every traced run reports them, so each workload's trace
// carries the layer costs measured next to it.
func runProbes(cfg *config, tr *tracer, parent int) (map[string]float64, error) {
	n := 1
	if !cfg.smoke {
		n = 20
	}
	vals := map[string]float64{}
	probe := func(name string, f func() float64) {
		id := tr.begin("probe "+name, parent)
		vals[name] = f()
		tr.end(id)
	}

	// internal/sim: one schedule + one fire against 256 pending events,
	// and the parallel engine's token ring on one shard and on one per CPU.
	probe("sim.engine.ns_per_op", func() float64 {
		e := sim.NewEngine()
		fn := func() {}
		for i := 0; i < 256; i++ {
			e.After(sim.Cycles(1<<40+i), fn)
		}
		return nsPerOp(10000*n, func(int) {
			e.After(10, fn)
			e.Step()
		})
	})
	probe("sim.parallel.ns_per_event.shards-1", func() float64 {
		return testing.Benchmark(microbench.ParallelEngineEvents(1)).Extra["ns/event"]
	})
	probe("sim.parallel.ns_per_event.shards-nproc", func() float64 {
		return testing.Benchmark(microbench.ParallelEngineEvents(runtime.NumCPU())).Extra["ns/event"]
	})

	// internal/mem/coherence: the shapes of the root bench_test.go.
	newProto := func() *coherence.Protocol {
		c := coherence.DefaultConfig()
		return coherence.New(c, noc.New(noc.DefaultConfig()), dram.NewPlacement(c.Nodes, 4096))
	}
	probe("coherence.read_hit_ns", func() float64 {
		p := newProto()
		p.Read(0, 0x1000, 0)
		return nsPerOp(10000*n, func(i int) { p.Read(0, 0x1000, sim.Cycles(i)) })
	})
	probe("coherence.remote_fill_ns", func() float64 {
		p := newProto()
		return nsPerOp(4000*n, func(i int) { p.Read(i&63, uint64(i)<<6, sim.Cycles(i)) })
	})
	probe("coherence.inval_fanout_ns", func() float64 {
		p := newProto()
		return nsPerOp(1000*n, func(i int) {
			for k := 0; k < 8; k++ {
				p.Read(k, 0xF000, sim.Cycles(i*100+k))
			}
			p.Write(0, 0xF000, sim.Cycles(i*100+50))
		})
	})

	// internal/cpu: one segment of core-256's program on a region's
	// protocol, as the sharded machine runs it.
	probe("cpu.segment_ns", func() float64 {
		arch := core.DefaultArch()
		rc, rn := arch.Coherence, arch.NoC
		rc.Nodes, rn.Nodes = 8, 8
		proto := coherence.New(rc, noc.New(rn), dram.NewPlacement(8, arch.PageBytes))
		model := power.NewModel(power.DefaultUnitEnergies(), power.Table3())
		c := cpu.New(0, arch.CPU, proto, model, arch.Activity)
		seg := harness.CoreScalingProgram(cfg.seed, 256, 24).Phase(0).Segment(0)
		var now sim.Cycles
		return nsPerOp(100*n, func(int) { now += c.RunSegment(now, seg) })
	})

	// internal/predict: a warm last-value entry.
	probe("predict.predict_ns", func() float64 {
		t := predict.NewTable(predict.DefaultConfig())
		t.Update(0x100, 1000)
		return nsPerOp(20000*n, func(int) { t.Predict(0x100) })
	})
	probe("predict.update_ns", func() float64 {
		t := predict.NewTable(predict.DefaultConfig())
		return nsPerOp(20000*n, func(i int) { t.Update(0x100, sim.Cycles(1000+i&7)) })
	})

	// thrifty: arrival and release with nobody to wait for.
	probe("thrifty.arrive_release_ns", func() float64 {
		b := thrifty.New(1, thrifty.Options{})
		return nsPerOp(20000*n, func(int) { b.WaitSite(1) })
	})

	// internal/wheel: an arm/cancel pair on the process-wide wheel, and
	// how late armed entries fire.
	probe("wheel.arm_cancel_ns", func() float64 {
		w, ch := wheel.Default(), make(chan struct{}, 1)
		return nsPerOp(20000*n, func(int) { w.Cancel(w.Arm(time.Second, ch)) })
	})
	id := tr.begin("probe wheel.fire_late_us", parent)
	late := fireLateness(16 * n)
	tr.end(id)
	vals["wheel.fire_late_us.p50"] = percentile(late, 0.5)
	vals["wheel.fire_late_us.p99"] = percentile(late, 0.99)

	// internal/remote and thrifty/client.
	probe("remote.codec_ns", func() float64 {
		reg := remote.Register{ClientID: "bench-0", Barrier: "site-0", Parties: 2, Nonce: 7, Epoch: 3, Gen: 1}
		dir := remote.Directive{Barrier: "site-0", Epoch: 3, Tier: remote.TierTimedPark,
			PredictedStallNanos: 1_600_000, PollNanos: 200_000, ParkNanos: 1_550_000}
		rel := remote.Release{Barrier: "site-0", Epoch: 3, Arrived: 2}
		return nsPerOp(5000*n, func(int) {
			remote.DecodeRegister(reg.Encode())
			remote.DecodeDirective(dir.Encode())
			remote.DecodeRelease(rel.Encode())
		})
	})
	rtt, wait1, err := serviceProbes(tr, parent, 100*n)
	if err != nil {
		return nil, err
	}
	vals["remote.server_rtt_us.p50"] = percentile(rtt, 0.5)
	vals["remote.server_rtt_us.p99"] = percentile(rtt, 0.99)
	vals["client.wait1_us.p50"] = percentile(wait1, 0.5)
	vals["client.overhead_us.p50"] = vals["client.wait1_us.p50"] - vals["remote.server_rtt_us.p50"]
	return vals, nil
}

// nsPerOp times probeBatches batches of n calls and returns the median
// batch's nanoseconds per call. op's argument counts up across batches.
func nsPerOp(n int, op func(i int)) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := b * n; i < (b+1)*n; i++ {
			op(i)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// fireLateness arms batches of 64 entries on the process-wide wheel, due
// 100 µs to 1.7 ms out, and returns how late each fired, in µs. Entries
// are received in due order, so one goroutine observes them all.
func fireLateness(batches int) []float64 {
	w := wheel.Default()
	var late []float64
	for b := 0; b < batches; b++ {
		type armed struct {
			ch  chan struct{}
			due time.Time
		}
		entries := make([]armed, 64)
		for i := range entries {
			d := 100*time.Microsecond + time.Duration(i)*25*time.Microsecond
			entries[i] = armed{ch: make(chan struct{}, 1), due: time.Now().Add(d)}
			w.Arm(d, entries[i].ch)
		}
		for _, e := range entries {
			<-e.ch
			late = append(late, float64(time.Since(e.due).Nanoseconds())/1e3)
		}
	}
	return late
}

// serviceProbes measures a server on an in-memory pipe: raw
// register→release round trips on a one-party barrier, written and read
// as frames with no client involved, then one-party client.Wait calls.
// Both return latencies in µs.
func serviceProbes(tr *tracer, parent, n int) (rtt, wait1 []float64, err error) {
	srv := remote.NewServer(remote.Options{})
	ln := remote.NewPipeListener()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	id := tr.begin("probe remote.server_rtt_us", parent)
	conn, err := ln.Dial(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := roundTrip(conn, uint64(i+1)); err != nil {
			return nil, nil, fmt.Errorf("raw round trip %d: %w", i, err)
		}
		rtt = append(rtt, float64(time.Since(start).Nanoseconds())/1e3)
	}
	tr.end(id)

	id = tr.begin("probe client.wait1_us", parent)
	c, err := client.New(client.Options{Dial: ln.Dial, ClientID: "bench-wait1"})
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		wctx, wcancel := context.WithTimeout(ctx, waitDeadline)
		start := time.Now()
		err := c.Wait(wctx, "wait1", 1)
		wcancel()
		if err != nil {
			return nil, nil, fmt.Errorf("one-party client wait %d: %w", i, err)
		}
		wait1 = append(wait1, float64(time.Since(start).Nanoseconds())/1e3)
	}
	tr.end(id)
	return rtt, wait1, nil
}

// roundTrip registers at a one-party barrier and reads frames until the
// epoch's release.
func roundTrip(conn net.Conn, nonce uint64) error {
	if err := conn.SetDeadline(time.Now().Add(waitDeadline)); err != nil {
		return err
	}
	reg := remote.Register{ClientID: "bench-raw", Barrier: "rtt", Parties: 1, Nonce: nonce}
	if err := remote.WriteFrame(conn, reg.Encode()); err != nil {
		return err
	}
	for {
		p, err := remote.ReadFrame(conn)
		if err != nil {
			return err
		}
		switch p[0] {
		case remote.FrameRelease:
			rel, err := remote.DecodeRelease(p)
			if err == nil && rel.Broken {
				err = fmt.Errorf("broken release: %s", rel.Reason)
			}
			return err
		case remote.FrameError:
			ef, err := remote.DecodeError(p)
			if err == nil {
				err = fmt.Errorf("server error: %s", ef.Msg)
			}
			return err
		}
	}
}
