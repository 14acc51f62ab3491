package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"spamer"
	"spamer/internal/experiments"
	"spamer/internal/harness"
	"spamer/internal/workloads"
)

// matrix runs the Figure-8 matrix — the eight Table-2 benchmarks at
// scale 1 under vl/0delay/adapt/tuned, 32 runs — as one
// RunSpecsParallel batch on nproc harness workers. One operation is one
// (spec, algorithm) run; a round is one batch. The seed only picks the
// submission order of each batch.
type matrix struct {
	o       options
	benches []string
	rng     *rand.Rand
	// wantTicks pins every cell's simulated ticks ("bench/alg").
	wantTicks map[string]uint64
	// wantGeomean pins the SPAMeR-over-VL geomeans of EXPERIMENTS.md,
	// to two decimals.
	wantGeomean map[string]float64
}

// matrixTicks are the per-cell ticks of the scale-1 matrix.
var matrixTicks = map[string]uint64{
	"bitonic/vl": 50304, "bitonic/0delay": 47330, "bitonic/adapt": 47330, "bitonic/tuned": 47330,
	"sweep/vl": 260160, "sweep/0delay": 237844, "sweep/adapt": 238216, "sweep/tuned": 237844,
	"ping-pong/vl": 244800, "ping-pong/0delay": 244802, "ping-pong/adapt": 244864, "ping-pong/tuned": 244802,
	"incast/vl": 220879, "incast/0delay": 146506, "incast/adapt": 148680, "incast/tuned": 146506,
	"halo/vl": 14914, "halo/0delay": 11048, "halo/adapt": 11064, "halo/tuned": 11048,
	"pipeline/vl": 107664, "pipeline/0delay": 78797, "pipeline/adapt": 78797, "pipeline/tuned": 78797,
	"firewall/vl": 150587, "firewall/0delay": 101018, "firewall/adapt": 101034, "firewall/tuned": 101018,
	"FIR/vl": 130913, "FIR/0delay": 78731, "FIR/adapt": 94383, "FIR/tuned": 88422,
}

func newMatrix(o options) *matrix {
	benches := []string{"bitonic", "sweep", "ping-pong", "incast", "halo", "pipeline", "firewall", "FIR"}
	if o.small {
		benches = []string{"ping-pong", "incast"}
	}
	return &matrix{
		o: o, benches: benches,
		rng:       rand.New(rand.NewSource(int64(mix64(o.seed)))),
		wantTicks: matrixTicks,
		wantGeomean: map[string]float64{
			spamer.AlgZeroDelay: 1.30, spamer.AlgAdaptive: 1.27, spamer.AlgTuned: 1.28,
		},
	}
}

// batch returns the specs in this round's seeded submission order.
func (m *matrix) batch() []experiments.Spec {
	specs := make([]experiments.Spec, len(m.benches))
	for i, b := range m.benches {
		specs[i] = experiments.Spec{Benchmark: b, Scale: 1}
	}
	m.rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// check counts the batch's failed runs: errors, cells whose ticks differ
// from the pin, and — when a geomean misses EXPERIMENTS.md — every run
// of that algorithm.
func (m *matrix) check(res []experiments.SpecResult) (runs, failed int) {
	logs := map[string]float64{}
	bad := map[string]bool{}
	for _, r := range res {
		if r.Err != nil {
			logf("paper-matrix: spec %d: %v", r.Index, r.Err)
		}
		for _, o := range r.Outcomes {
			runs++
			key := o.Benchmark + "/" + o.Algorithm
			if want, ok := m.wantTicks[key]; !ok || want != o.Ticks {
				logf("paper-matrix: %s ticks %d, pinned %d", key, o.Ticks, want)
				failed++
				bad[key] = true
			}
			logs[o.Algorithm] += math.Log(o.SpeedupOverVL)
		}
		missing := len(spamer.Configs()) - len(r.Outcomes)
		runs += missing
		failed += missing
	}
	if m.o.small {
		return runs, failed
	}
	for alg, want := range m.wantGeomean {
		g := math.Exp(logs[alg] / float64(len(m.benches)))
		if math.Round(g*100)/100 != want {
			logf("paper-matrix: %s geomean %.4f, EXPERIMENTS.md %.2f", alg, g, want)
			for _, b := range m.benches {
				if !bad[b+"/"+alg] {
					failed++
				}
			}
		}
	}
	return runs, failed
}

func (m *matrix) run(d time.Duration, tr *tracer) (*outcome, error) {
	out := &outcome{}
	workers := runtime.NumCPU()
	var setup, wall, lat, perMsg, validate []float64
	var waits, runsMS []float64
	var busy, poolWall float64
	start := time.Now()
	// Batch 0 is the warm-up: checked, not timed. At least one batch is
	// timed however short d is.
	for op := uint64(0); op <= 1 || time.Since(start) < d; op++ {
		specs := m.batch()
		sp := tr.begin("matrix.batch", 0, op)
		vs := tr.begin("experiments.validate_hash", sp, op)
		t0 := time.Now()
		for i := range specs {
			if err := specs[i].Validate(); err != nil {
				return nil, fmt.Errorf("paper-matrix: %w", err)
			}
		}
		experiments.HashSpecs(specs)
		t1 := time.Now()
		tr.end(vs)
		hs := tr.begin("harness.pool", sp, op)
		var mu sync.Mutex
		started := map[string]time.Time{}
		var done []float64
		var runMS, waitMS []float64
		res := experiments.RunSpecsParallel(context.Background(), specs, harness.Options{
			Workers: workers,
			OnStart: func(p harness.Progress) {
				mu.Lock()
				started[p.Label] = time.Now()
				mu.Unlock()
			},
			OnProgress: func(p harness.Progress) {
				now := time.Now()
				mu.Lock()
				s := started[p.Label]
				mu.Unlock()
				done = append(done, now.Sub(t1).Seconds()*1e3)
				runMS = append(runMS, now.Sub(s).Seconds()*1e3)
				waitMS = append(waitMS, s.Sub(t1).Seconds()*1e3)
				tr.add("harness.run", hs, op, s, now)
			},
		})
		t2 := time.Now()
		tr.end(hs)
		tr.end(sp)

		n, failed := m.check(res)
		out.attempted += n
		out.failed += failed
		var msgs uint64
		for _, r := range res {
			for _, o := range r.Outcomes {
				msgs += o.Messages
			}
		}
		out.msgs += float64(msgs)
		out.ops += float64(n)
		if op == 0 {
			continue
		}
		setup = append(setup, t1.Sub(t0).Seconds())
		validate = append(validate, t1.Sub(t0).Seconds()*1e6/float64(len(specs)))
		wall = append(wall, t2.Sub(t0).Seconds())
		lat = append(lat, done...)
		perMsg = append(perMsg, float64(t2.Sub(t1).Nanoseconds())/float64(msgs))
		waits = append(waits, waitMS...)
		runsMS = append(runsMS, runMS...)
		busy += sum(runMS)
		poolWall += t2.Sub(t1).Seconds() * 1e3
	}
	tr.phaseEnd()
	out.e2e = map[string]float64{
		"setup_s":     median(setup),
		"msg_ns":      median(perMsg),
		"wall_s":      median(wall),
		"job_p50_ms":  quantile(lat, 0.5),
		"job_p90_ms":  quantile(lat, 0.9),
		"jobs_per_s":  ratio(float64(len(lat)), sum(wall)),
		"mem_peak_mb": peakMemMB(),
	}
	out.primary = out.e2e["wall_s"]
	out.layers = map[string]float64{}
	if tr != nil {
		out.layers = m.model()
		out.layers["harness.wait_ms_p50"] = median(waits)
		out.layers["harness.run_ms_p50"] = median(runsMS)
		out.layers["harness.run_ms_max"] = maxOf(runsMS)
		out.layers["harness.busy_share"] = ratio(busy, float64(workers)*poolWall)
		out.layers["experiments.validate_hash_us"] = median(validate)
	}
	return out, nil
}

// model drives every cell once directly for the simulated-model and
// kernel counters (outside the timed phase).
func (m *matrix) model() map[string]float64 {
	var runs []simRun
	for _, b := range m.benches {
		w, _ := workloads.ByName(b)
		for _, alg := range spamer.Configs() {
			runs = append(runs, drive(w, spamer.Config{Algorithm: alg, Deadline: 1 << 40}, 1, nil, 0, 0))
		}
	}
	return modelLayers(runs)
}
