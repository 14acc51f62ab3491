package experiments

import (
	"context"
	"fmt"

	"spamer"
	"spamer/internal/core"
	"spamer/internal/harness"
	"spamer/internal/vl"
	"spamer/internal/workloads"
)

// Ablation studies for the design choices DESIGN.md calls out, beyond
// the paper's own figures: the wider predictor space §3.5 sketches, the
// sensitivity to SRD sizing, interconnect topology (hop latency and
// channel count — the paper explicitly defers topology), and the cost
// of the §3.6 obfuscation mitigation. Every study fans its runs across
// the harness pool.

// PredictorRow is one benchmark's speedups across every implemented
// delay algorithm (paper trio + extensions).
type PredictorRow struct {
	Benchmark string
	Speedups  map[string]float64 // algorithm name -> speedup over VL
}

// PredictorStudy runs every extended algorithm on every benchmark.
func PredictorStudy(ctx context.Context, scale int, opts harness.Options) ([]PredictorRow, error) {
	all := workloads.All()
	algs := core.ExtendedAlgorithms()
	var runs []studyRun
	for _, w := range all {
		runs = append(runs, studyRun{w.Name + "/vl", w, spamer.Config{Algorithm: spamer.AlgBaseline}})
		for _, alg := range algs {
			runs = append(runs, studyRun{w.Name + "/" + alg.Name(), w,
				spamer.Config{Algorithm: "custom", CustomAlgorithm: alg}})
		}
	}
	results, err := runStudy(ctx, runs, scale, opts)
	if err != nil {
		return nil, err
	}
	stride := 1 + len(algs)
	var rows []PredictorRow
	for i, w := range all {
		base := results[i*stride]
		row := PredictorRow{Benchmark: w.Name, Speedups: map[string]float64{}}
		for j, alg := range algs {
			row.Speedups[alg.Name()] = results[i*stride+1+j].Speedup(base)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PredictorNames returns the column order for PredictorStudy output.
func PredictorNames() []string {
	var out []string
	for _, a := range core.ExtendedAlgorithms() {
		out = append(out, a.Name())
	}
	return out
}

// SweepPoint is one (x, value) sample of a sensitivity sweep.
type SweepPoint struct {
	X       int
	Ticks   uint64
	Speedup float64 // over the VL baseline at the same x
}

// sweep runs the baseline and SPAMeR configurations of every x, so each
// point's speedup is an apples-to-apples comparison at the same x.
func sweep(ctx context.Context, bench string, xs []int,
	cfgs func(x int) (base, spec spamer.Config), scale int, opts harness.Options) ([]SweepPoint, error) {
	w, ok := workloads.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", bench)
	}
	var runs []studyRun
	for _, x := range xs {
		base, spec := cfgs(x)
		label := fmt.Sprintf("%s/x=%d/", bench, x)
		runs = append(runs, studyRun{label + base.Algorithm, w, base}, studyRun{label + spec.Algorithm, w, spec})
	}
	results, err := runStudy(ctx, runs, scale, opts)
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, len(xs))
	for i, x := range xs {
		base, res := results[2*i], results[2*i+1]
		points[i] = SweepPoint{X: x, Ticks: res.Ticks, Speedup: res.Speedup(base)}
	}
	return points, nil
}

// SRDEntriesSweep varies the routing-device structure sizes on a
// benchmark, with the tuned algorithm (firewall by default exercises
// backpressure at small sizes; halo needs >= 48 linkTab rows).
func SRDEntriesSweep(ctx context.Context, bench string, sizes []int, scale int, opts harness.Options) ([]SweepPoint, error) {
	return sweep(ctx, bench, sizes, func(n int) (spamer.Config, spamer.Config) {
		cfg := vl.Config{ProdEntries: n, ConsEntries: n, LinkEntries: max(n, 64)}
		return spamer.Config{Algorithm: spamer.AlgBaseline, SRD: cfg},
			spamer.Config{Algorithm: spamer.AlgTuned, SRD: cfg}
	}, scale, opts)
}

// HopLatencySweep varies the one-way core<->device hop latency — the
// topology dimension the paper defers ("the impact of topology ... are
// not the focus of this paper").
func HopLatencySweep(ctx context.Context, bench string, hops []uint64, scale int, opts harness.Options) ([]SweepPoint, error) {
	xs := make([]int, len(hops))
	for i, h := range hops {
		xs[i] = int(h)
	}
	return sweep(ctx, bench, xs, func(h int) (spamer.Config, spamer.Config) {
		return spamer.Config{Algorithm: spamer.AlgBaseline, HopLatency: uint64(h)},
			spamer.Config{Algorithm: spamer.AlgZeroDelay, HopLatency: uint64(h)}
	}, scale, opts)
}

// BusChannelsSweep varies the interconnect parallelism.
func BusChannelsSweep(ctx context.Context, bench string, channels []int, scale int, opts harness.Options) ([]SweepPoint, error) {
	return sweep(ctx, bench, channels, func(c int) (spamer.Config, spamer.Config) {
		return spamer.Config{Algorithm: spamer.AlgBaseline, BusChannels: c},
			spamer.Config{Algorithm: spamer.AlgZeroDelay, BusChannels: c}
	}, scale, opts)
}

// DevicesSweep varies the number of routing devices — the multi-router
// arrangement §3.1 mentions but does not evaluate. Queues distribute
// round-robin, relieving per-device mapping-pipeline and send-port
// contention on many-queue workloads.
func DevicesSweep(ctx context.Context, bench string, devices []int, scale int, opts harness.Options) ([]SweepPoint, error) {
	return sweep(ctx, bench, devices, func(d int) (spamer.Config, spamer.Config) {
		return spamer.Config{Algorithm: spamer.AlgBaseline, Devices: d},
			spamer.Config{Algorithm: spamer.AlgZeroDelay, Devices: d}
	}, scale, opts)
}

// ObfuscationRow compares a benchmark's tuned run with and without the
// §3.6 timing-obfuscation wrapper at a given jitter bound.
type ObfuscationRow struct {
	Benchmark string
	Jitter    uint64
	Plain     uint64  // ticks without obfuscation
	Obf       uint64  // ticks with obfuscation
	Overhead  float64 // Obf/Plain - 1
}

// ObfuscationStudy measures the performance cost of the side-channel
// mitigation across benchmarks.
func ObfuscationStudy(ctx context.Context, jitter uint64, scale int, opts harness.Options) ([]ObfuscationRow, error) {
	all := workloads.All()
	var runs []studyRun
	for _, w := range all {
		runs = append(runs,
			studyRun{w.Name + "/plain", w, spamer.Config{Algorithm: spamer.AlgTuned}},
			studyRun{w.Name + "/obfuscated", w, spamer.Config{
				Algorithm:       "custom",
				CustomAlgorithm: core.Obfuscated{Inner: core.NewTuned(), Key: 0x5eed, MaxJitter: jitter},
			}})
	}
	results, err := runStudy(ctx, runs, scale, opts)
	if err != nil {
		return nil, err
	}
	var rows []ObfuscationRow
	for i, w := range all {
		plain, obf := results[2*i], results[2*i+1]
		rows = append(rows, ObfuscationRow{
			Benchmark: w.Name,
			Jitter:    jitter,
			Plain:     plain.Ticks,
			Obf:       obf.Ticks,
			Overhead:  float64(obf.Ticks)/float64(plain.Ticks) - 1,
		})
	}
	return rows, nil
}
