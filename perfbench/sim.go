package main

import (
	"time"

	"spamer"
	"spamer/internal/workloads"
)

// simRun is one simulation driven directly through the public API:
// NewSystem, Workload.Build, System.Run.
type simRun struct {
	res       spamer.Result
	executed  uint64 // Kernel().Executed()
	threads   int
	highWater int // largest specBuf occupancy over every device
	build     time.Duration
	run       time.Duration
	mallocs   uint64 // host allocations during Run (traced runs only)
}

// drive builds and runs w once, recording "sim.build" and "sim.run"
// spans under parent.
func drive(w *workloads.Workload, cfg spamer.Config, scale int, tr *tracer, parent, op uint64) simRun {
	var r simRun
	sp := tr.begin("sim.build", parent, op)
	t0 := time.Now()
	sys := spamer.NewSystem(cfg)
	w.Build(sys, scale)
	t1 := time.Now()
	tr.end(sp)
	var before allocs
	if tr != nil {
		before = readAllocs()
	}
	sp = tr.begin("sim.run", parent, op)
	r.res = sys.Run()
	t2 := time.Now()
	tr.end(sp)
	if tr != nil {
		r.mallocs = readAllocs().mallocs - before.mallocs
	}
	r.build, r.run = t1.Sub(t0), t2.Sub(t1)
	r.executed = sys.Kernel().Executed()
	r.threads = sys.Threads()
	for _, b := range sys.SpecBufs() {
		r.highWater = max(r.highWater, b.HighWater())
	}
	return r
}

// modelLayers aggregates the simulated-model counters and the kernel's
// host cost over runs. The model counters are deterministic: only a
// change to the modelled machine may move them.
func modelLayers(runs []simRun) map[string]float64 {
	var msgs, events, threads, packets, fetches, failed, pushes, specHits, specPushes, empty, busy, util float64
	var runNS float64
	hw := 0
	for _, r := range runs {
		d := r.res.Device
		msgs += float64(r.res.Popped)
		events += float64(r.executed)
		threads += float64(r.threads)
		packets += float64(r.res.Bus.TotalPackets())
		fetches += float64(d.Fetches)
		failed += float64(d.FailedPushes())
		pushes += float64(d.TotalPushes())
		specHits += float64(d.SpecHits)
		specPushes += float64(d.SpecPushes)
		empty += float64(r.res.EmptyTicks)
		busy += float64(r.res.NonEmptyTicks)
		util += r.res.BusUtilization
		runNS += float64(r.run.Nanoseconds())
		hw = max(hw, r.highWater)
	}
	n := float64(len(runs))
	return map[string]float64{
		"sim.events_per_msg":     ratio(events, msgs),
		"sim.event_ns":           ratio(runNS, events),
		"sim.procs_per_run":      ratio(threads, n),
		"noc.packets_per_msg":    ratio(packets, msgs),
		"noc.bus_util":           ratio(util, n),
		"vl.push_fail_ratio":     ratio(failed, pushes),
		"vl.fetches_per_msg":     ratio(fetches, msgs),
		"core.spec_hit_ratio":    ratio(specHits, specPushes),
		"core.specbuf_highwater": float64(hw),
		"mem.empty_share":        ratio(empty, empty+busy),
	}
}

// sameRun reports whether two runs of one configuration simulated the
// identical execution.
func sameRun(a, b simRun) bool {
	return a.res.Ticks == b.res.Ticks && a.executed == b.executed &&
		a.res.Device == b.res.Device && a.res.Bus.TotalPackets() == b.res.Bus.TotalPackets()
}
