package main

import (
	"fmt"
	"time"

	"spamer"
	"spamer/internal/traffic"
	"spamer/internal/workloads"
)

// stream is the BenchmarkMillionMessage sequential schedule: a 2-stage
// chain (tuned, 4 lines, window 8) fed by a Poisson population of 16
// users at mean gap 400, its arrival seed drawn from the workload seed.
// One operation is one simulation of streamMessages messages; only the
// kernel and the model's hot path do work.
type stream struct {
	o        options
	messages int
	w        *workloads.Workload
	cfg      spamer.Config
	// wantTicks pins the simulated end tick at the default seed.
	wantTicks uint64
}

const (
	streamMessages = 200_000
	smallMessages  = 2_000
	defaultSeed    = 1
)

// streamTicks pins the simulated end tick of the default seed, per
// message count, as the simulator computes it today. A change that moves
// it changed the model, not just the simulator's speed.
var streamTicks = map[int]uint64{
	streamMessages: 5400036,
	smallMessages:  54036,
}

func newStream(o options) *stream {
	n := streamMessages
	if o.small {
		n = smallMessages
	}
	sh := workloads.Shape{
		Stages: 2, Messages: n, Lines: 4, Window: 8,
		Arrival: &traffic.Spec{Seed: mix64(o.seed), MeanGap: 400, Users: 16},
	}
	return &stream{
		o: o, messages: n, w: sh.Workload(),
		cfg:       spamer.Config{Algorithm: spamer.AlgTuned, Deadline: 1 << 40},
		wantTicks: streamTicks[n],
	}
}

// check validates one run against the conservation law, the first run
// of the process (determinism) and, at the default seed, the pin.
func (s *stream) check(r, first simRun) error {
	n := uint64(s.messages)
	if r.res.Popped != n || r.res.Pushed != n {
		return fmt.Errorf("stream: pushed %d, delivered %d, want %d", r.res.Pushed, r.res.Popped, n)
	}
	if !sameRun(r, first) {
		return fmt.Errorf("stream: run diverged from the first run (ticks %d vs %d)", r.res.Ticks, first.res.Ticks)
	}
	if s.o.seed == defaultSeed && r.res.Ticks != s.wantTicks {
		return fmt.Errorf("stream: default seed ended at tick %d, pinned %d", r.res.Ticks, s.wantTicks)
	}
	return nil
}

func (s *stream) run(d time.Duration, tr *tracer) (*outcome, error) {
	out := &outcome{}
	// The warm-up run is checked but not timed: it fills the allocator
	// and the instruction caches.
	first := drive(s.w, s.cfg, 1, nil, 0, 0)
	out.attempted++
	if err := s.check(first, first); err != nil {
		out.failed++
		logf("%v", err)
	}
	var runs []simRun
	var setup, wall, lat, perMsg []float64
	start := time.Now()
	for op := uint64(1); op == 1 || time.Since(start) < d; op++ {
		sp := tr.begin("stream.op", 0, op)
		r := drive(s.w, s.cfg, 1, tr, sp, op)
		tr.end(sp)
		out.attempted++
		if err := s.check(r, first); err != nil {
			out.failed++
			logf("%v", err)
			continue
		}
		runs = append(runs, r)
		setup = append(setup, r.build.Seconds())
		wall = append(wall, r.run.Seconds())
		lat = append(lat, (r.build+r.run).Seconds()*1e3)
		perMsg = append(perMsg, float64(r.run.Nanoseconds())/float64(s.messages))
	}
	tr.phaseEnd()
	out.e2e = map[string]float64{
		"setup_s":     median(setup),
		"msg_ns":      median(perMsg),
		"wall_s":      median(wall),
		"job_p50_ms":  quantile(lat, 0.5),
		"job_p90_ms":  quantile(lat, 0.9),
		"jobs_per_s":  ratio(float64(len(lat)), sum(lat)/1e3),
		"mem_peak_mb": peakMemMB(),
	}
	out.primary = out.e2e["msg_ns"]
	out.layers = modelLayers(runs)
	if tr != nil {
		// Allocations of the run phase alone. The per-message hot path
		// does not allocate; what remains is Run's own start-up (a few
		// dozen per run) spread over the messages.
		var mallocs uint64
		for _, r := range runs {
			mallocs += r.mallocs
		}
		out.layers["host.allocs_per_msg"] = ratio(float64(mallocs), float64(len(runs)*s.messages))
	}
	out.ops = float64(out.attempted)
	out.msgs = out.ops * float64(s.messages)
	return out, nil
}
