// Command perfbench is the repository benchmark. It drives the
// simulator, the experiment harness and the HTTP service from outside,
// through their public entry points, on one of three workloads:
//
//	stream        one long open-loop simulation on the sequential kernel
//	paper-matrix  the Figure-8 matrix as a RunSpecsParallel batch
//	service-mix   closed-loop HTTP clients against an in-process spamer-serve
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload stream --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the same workload untraced and then traced (spans around every
// layer call plus a CPU profile) and reports the per-layer metrics and
// the tracing overhead. Every output is checked; the last stdout line is
// one JSON object {correct, attempted, failed, metrics}. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one measured phase of a workload yields.
type outcome struct {
	attempted, failed int
	// e2e holds every end-to-end metric by name.
	e2e map[string]float64
	// primary is the workload's headline metric (lower is better); the
	// traced run compares it against the untraced run for the overhead.
	primary float64
	// layers holds the workload-specific per-layer metrics.
	layers map[string]float64
	// msgs and ops count the simulated messages delivered and the
	// operations run in the phase, warm-up included (host allocation
	// rates).
	msgs, ops float64
}

// workload is one benchmark workload.
type workload interface {
	// run measures for d. tr is nil on untraced runs.
	run(d time.Duration, tr *tracer) (*outcome, error)
}

// options carries the command line into the workloads.
type options struct {
	seed uint64
	// small shrinks every workload to a few operations (self-test).
	small bool
	// outDir receives the traced run's spans and CPU profile.
	outDir string
}

func newWorkload(name string, o options) (workload, error) {
	switch name {
	case "stream":
		return newStream(o), nil
	case "paper-matrix":
		return newMatrix(o), nil
	case "service-mix":
		s, err := newServiceMix(o)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want stream, paper-matrix or service-mix)", name)
}

func main() {
	name := flag.String("workload", "", "stream, paper-matrix or service-mix")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	if err := checkHost(); err != nil {
		fail(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1"))
	}
	o := options{seed: *seed, outDir: filepath.Join(".bench_build", "trace")}
	env := hostEnv(*name, *seed)
	line, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(line))

	rep, err := measure(*name, o, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fail(err)
	}
	line, _ = json.Marshal(rep)
	fmt.Println(string(line))
}

// measure runs one workload and assembles the result line: end-to-end
// metrics untraced, or per-layer metrics from an untraced then a traced
// phase of d/2 each.
func measure(name string, o options, d time.Duration, traced bool) (*report, error) {
	w, err := newWorkload(name, o)
	if err != nil {
		return nil, err
	}
	if traced {
		// The untraced baseline and the traced phase share the run's
		// time, so a traced run lasts as long as an untraced one.
		d /= 2
	}
	base, err := w.run(d, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
	if !traced {
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{base.e2e[m.name], m.unit}
		}
	} else {
		tr := newTracer()
		prof, err := startProfile()
		if err != nil {
			return nil, err
		}
		var samples []sample
		var profErr error
		before, after := readAllocs(), allocs{}
		tr.done = func() {
			after = readAllocs()
			samples, profErr = prof.stop()
		}
		out, runErr := w.run(d, tr)
		tr.phaseEnd() // in case the workload failed before its phase ended
		if runErr != nil {
			return nil, runErr
		}
		if profErr != nil {
			return nil, profErr
		}
		rep.Attempted += out.attempted
		rep.Failed += out.failed
		vals := out.layers
		for k, v := range cpuShares(samples) {
			vals[k] = v
		}
		for k, v := range probes(o.small) {
			vals[k] = v
		}
		if _, ok := vals["host.allocs_per_msg"]; !ok {
			vals["host.allocs_per_msg"] = ratio(float64(after.mallocs-before.mallocs), out.msgs)
		}
		vals["host.alloc_mb"] = ratio(float64(after.bytes-before.bytes)/(1<<20), out.ops)
		vals["trace.overhead_share"] = out.primary/base.primary - 1
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		if err := tr.write(o.outDir, name, o.seed, prof.data); err != nil {
			return nil, err
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// checkHost refuses a configuration that would oversubscribe the CPUs.
func checkHost() error {
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; refusing to run", p, n)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
