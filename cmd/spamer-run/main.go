// Command spamer-run is the one entry point to the simulator's
// experiments. With no subcommand it executes experiments described as
// JSON specs and emits machine-readable JSON outcomes; a subcommand
// regenerates one group of the paper's tables and figures as text:
//
//	spamer-run bench    Tables 1-2, Figures 8-10, §4.3 inlining study
//	spamer-run trace    §4.2 message-queue trace (Figure 7)
//	spamer-run sweep    Figure 11 tuned-parameter sensitivity
//	spamer-run latency  Figure 1 latency comparison, software-queue study
//	spamer-run area     §4.5 area and power estimation
//	spamer-run ablate   ablation and sensitivity studies
//	spamer-run tune     per-benchmark tuned-parameter search
//
// Every figure is a set of independent simulations; -parallel fans them
// across a bounded worker pool (internal/harness) with output identical
// to a sequential run. Results go to stdout, progress to stderr, and
// `spamer-run <subcommand> -h` lists a subcommand's flags.
//
// Spec mode reads one spec (or an array) from a file or stdin. Specs
// are independent simulations; -parallel fans them (one task per spec
// × algorithm) across the pool while keeping the emitted outcomes in
// spec order. A failing spec does not abort the batch: its error goes
// to stderr, every outcome that did complete is still written to
// stdout, and the exit status is nonzero.
//
// Usage:
//
//	spamer-run [-spec experiment.json] [-parallel N]
//	echo '{"benchmark":"FIR","algorithms":["vl","0delay"]}' | spamer-run
//	spamer-run bench|trace|sweep|latency|area|ablate|tune [flags]
//
// Spec fields: benchmark, algorithms, scale, hop_latency, bus_channels,
// devices, no_inline, srd_entries, tuned{zeta,tau,delta,alpha,beta},
// repeat (determinism check), label,
// extensions{allow_extended_workloads}.
//
// Instead of a named benchmark, a spec may carry an anonymous
// synthetic workload: shape{stages|producers/consumers, messages,
// prod_work, cons_work, lines, window, burst, burst_gap} with an
// optional open-loop arrival process
// arrival{process: poisson|mmpp|pareto, seed, mean_gap, users,
// bursty_gap, mean_dwell, alpha, max_gap, storm_every, storm_burst,
// ramp_period, ramp_peak} — see EXPERIMENTS.md, "Open-loop workloads".
// Arrival timelines are deterministic in (seed, endpoint).
//
// A shape may instead carry a workload DAG: shape{dag: {...}} with
// named stages, replica counts, compute distributions, edge policies,
// and optional recorded-trace replay (docs/WORKLOADS.md). Stage
// replay_file references are resolved relative to the spec file's
// directory (the working directory for stdin specs) before anything
// runs, so the content hash always covers the resolved trace. After a
// batch completes, a per-scenario SPAMeR-vs-VL speedup table is
// printed to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"spamer/internal/experiments"
	"spamer/internal/harness"
	"spamer/internal/profiling"
	"spamer/internal/report"
)

// env is one invocation: its flag set and I/O streams.
type env struct {
	flags          *flag.FlagSet
	stdin          io.Reader
	stdout, stderr io.Writer
}

// subcommands in usage order.
var subcommands = []struct {
	name string
	run  func(e *env, args []string) error
}{
	{"bench", runBench},
	{"trace", runTrace},
	{"sweep", runSweep},
	{"latency", runLatency},
	{"area", runArea},
	{"ablate", runAblate},
	{"tune", runTune},
}

// exitCode ends an invocation with a status whose message, if any, has
// already been printed. Any other error is printed to stderr, exit 1.
type exitCode int

func (c exitCode) Error() string { return fmt.Sprintf("exit status %d", int(c)) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run executes one command line and returns its exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	name, cmd := "spamer-run", runSpecs
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd = nil
		for _, s := range subcommands {
			if s.name == args[0] {
				name, cmd = name+" "+s.name, s.run
			}
		}
		if cmd == nil {
			fmt.Fprintf(stderr, "spamer-run: unknown subcommand %q\n%s\n", args[0], usage())
			return 2
		}
		args = args[1:]
	}
	e := &env{flags: flag.NewFlagSet(name, flag.ContinueOnError), stdin: stdin, stdout: stdout, stderr: stderr}
	e.flags.SetOutput(stderr)
	err := cmd(e, args)
	var code exitCode
	switch {
	case err == nil:
		return 0
	case errors.As(err, &code):
		return int(code)
	default:
		fmt.Fprintln(stderr, err)
		return 1
	}
}

func usage() string {
	names := make([]string, len(subcommands))
	for i, s := range subcommands {
		names[i] = s.name
	}
	return "usage: spamer-run [" + strings.Join(names, "|") + "] [flags]"
}

// parse parses a subcommand's flags; -h and bad flags end the
// invocation with the flag package's own message.
func (e *env) parse(args []string) error {
	switch err := e.flags.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return exitCode(0)
	case err != nil:
		return exitCode(2)
	}
	return nil
}

// The flags several subcommands share, each declared once.

func (e *env) scaleFlag() *int {
	return e.flags.Int("scale", 1, "message-count multiplier")
}

func (e *env) parallelFlag() *int {
	return e.flags.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
}

func (e *env) svgFlag() *string {
	return e.flags.String("svg", "", "also write figure SVGs into this directory")
}

// profileFlags declares -cpuprofile and -memprofile, the paths
// profiling.Start takes.
func (e *env) profileFlags() (cpu, mem *string) {
	return e.flags.String("cpuprofile", "", "write a CPU profile to this file"),
		e.flags.String("memprofile", "", "write a heap profile to this file")
}

// progress is a harness pool that reports finished runs on stderr.
func (e *env) progress(workers int, prefix string) harness.Options {
	return harness.Options{Workers: workers, OnProgress: harness.ProgressPrinter(e.stderr, prefix)}
}

// runSpecs is spec mode: JSON specs in, JSON outcomes out.
func runSpecs(e *env, args []string) error {
	specPath := e.flags.String("spec", "-", "spec file path, or - for stdin")
	parallel := e.parallelFlag()
	cpuprofile, memprofile := e.profileFlags()
	e.flags.Usage = func() {
		fmt.Fprintln(e.stderr, usage())
		e.flags.PrintDefaults()
	}
	if err := e.parse(args); err != nil {
		return err
	}
	stopProfiles := profiling.Start(*cpuprofile, *memprofile)

	r := e.stdin
	traceDir := "."
	if *specPath != "-" {
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
		traceDir = filepath.Dir(*specPath)
	}
	specs, err := experiments.ReadSpecs(r)
	if err != nil {
		return err
	}
	if err := experiments.ResolveTraceFiles(specs, traceDir); err != nil {
		return err
	}
	results := experiments.RunSpecsParallel(context.Background(), specs, harness.Options{
		Workers: *parallel,
	})
	stopProfiles()
	failed := false
	var all []experiments.Outcome
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(e.stderr, "spec %d: %v\n", res.Index, res.Err)
			failed = true
		}
		all = append(all, res.Outcomes...)
	}
	printSpeedups(e.stderr, all)
	if err := experiments.WriteOutcomes(e.stdout, all); err != nil {
		return err
	}
	if failed {
		return exitCode(1)
	}
	return nil
}

// printSpeedups renders the per-scenario SPAMeR-vs-VL speedup table:
// one row per benchmark/scenario (first-seen order), one column per
// algorithm, cells from each outcome's baseline-normalized speedup.
// Skipped when no outcome carries a speedup (no VL baseline ran).
func printSpeedups(w io.Writer, outs []experiments.Outcome) {
	var scenarios, algs []string
	si := map[string]int{}
	ai := map[string]int{}
	for _, o := range outs {
		if _, ok := si[o.Benchmark]; !ok {
			si[o.Benchmark] = len(scenarios)
			scenarios = append(scenarios, o.Benchmark)
		}
		if _, ok := ai[o.Algorithm]; !ok {
			ai[o.Algorithm] = len(algs)
			algs = append(algs, o.Algorithm)
		}
	}
	cells := make([][]float64, len(scenarios))
	for i := range cells {
		cells[i] = make([]float64, len(algs))
	}
	any := false
	for _, o := range outs {
		if o.SpeedupOverVL > 0 {
			cells[si[o.Benchmark]][ai[o.Algorithm]] = o.SpeedupOverVL
			any = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintln(w)
	report.SpeedupTable(w, "speedup over vl", scenarios, algs, cells)
}
