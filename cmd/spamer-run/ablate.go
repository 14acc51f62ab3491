package main

import (
	"context"
	"fmt"
	"io"

	"spamer/internal/experiments"
	"spamer/internal/harness"
	"spamer/internal/report"
)

// runAblate runs the ablation and sensitivity studies that go beyond
// the paper's own figures: the wider speculation-algorithm space §3.5
// sketches (history-based, perceptron-style, profiling-guided) plus
// the dynamic-reconfiguration future-work variant; SRD sizing;
// interconnect topology (hop latency, channel count — explicitly
// deferred by the paper); and the performance cost of the §3.6
// timing-obfuscation mitigation.
//
//	spamer-run ablate [-what predictors|srd|hop|channels|devices|obfuscation|all] [-scale N] [-parallel N]
func runAblate(e *env, args []string) error {
	what := e.flags.String("what", "all", "study: predictors|srd|hop|channels|devices|obfuscation|all")
	scale := e.scaleFlag()
	parallel := e.parallelFlag()
	if err := e.parse(args); err != nil {
		return err
	}
	ctx, out := context.Background(), e.stdout
	studies := []struct {
		name, title string
		run         func(harness.Options) error
	}{
		{"predictors", "Ablation: delay-prediction algorithm space (speedup over VL)", func(opts harness.Options) error {
			rows, err := experiments.PredictorStudy(ctx, *scale, opts)
			return printPredictors(out, rows, err)
		}},
		{"srd", "Ablation: SRD structure sizing on firewall (tuned vs VL at each size)", func(opts harness.Options) error {
			points, err := experiments.SRDEntriesSweep(ctx, "firewall", []int{8, 16, 32, 64, 128}, *scale, opts)
			return printSweep(out, "entries", points, err)
		}},
		{"hop", "Ablation: hop latency on FIR (0delay vs VL at each latency)", func(opts harness.Options) error {
			points, err := experiments.HopLatencySweep(ctx, "FIR", []uint64{6, 12, 24, 48}, *scale, opts)
			return printSweep(out, "hop cycles", points, err)
		}},
		{"channels", "Ablation: interconnect channels on halo (0delay vs VL at each width)", func(opts harness.Options) error {
			points, err := experiments.BusChannelsSweep(ctx, "halo", []int{1, 2, 4, 8}, *scale, opts)
			return printSweep(out, "channels", points, err)
		}},
		{"devices", "Ablation: routing devices on halo (0delay vs VL at each count)", func(opts harness.Options) error {
			points, err := experiments.DevicesSweep(ctx, "halo", []int{1, 2, 4}, *scale, opts)
			return printSweep(out, "devices", points, err)
		}},
		{"obfuscation", "Ablation: §3.6 timing obfuscation cost (tuned, 32-cycle jitter bound)", func(opts harness.Options) error {
			rows, err := experiments.ObfuscationStudy(ctx, 32, *scale, opts)
			return printObfuscation(out, rows, err)
		}},
	}
	for _, s := range studies {
		if *what != "all" && *what != s.name {
			continue
		}
		fmt.Fprintln(out, s.title)
		if err := s.run(e.progress(*parallel, s.name)); err != nil || *what != "all" {
			return err
		}
		fmt.Fprintln(out)
	}
	if *what != "all" {
		fmt.Fprintf(e.stderr, "unknown -what %q\n", *what)
		return exitCode(2)
	}
	return nil
}

// The print helpers render one study's table, or pass its error on.

func printPredictors(out io.Writer, rows []experiments.PredictorRow, err error) error {
	if err != nil {
		return err
	}
	names := experiments.PredictorNames()
	table := [][]string{append([]string{"benchmark"}, names...)}
	for _, r := range rows {
		row := []string{r.Benchmark}
		for _, n := range names {
			row = append(row, fmt.Sprintf("%.2fx", r.Speedups[n]))
		}
		table = append(table, row)
	}
	report.Table(out, table, true)
	return nil
}

func printObfuscation(out io.Writer, rows []experiments.ObfuscationRow, err error) error {
	if err != nil {
		return err
	}
	table := [][]string{{"benchmark", "plain (cycles)", "obfuscated", "overhead"}}
	for _, r := range rows {
		table = append(table, []string{
			r.Benchmark, fmt.Sprint(r.Plain), fmt.Sprint(r.Obf),
			fmt.Sprintf("%+.1f%%", r.Overhead*100),
		})
	}
	report.Table(out, table, true)
	return nil
}

func printSweep(out io.Writer, xName string, points []experiments.SweepPoint, err error) error {
	if err != nil {
		return err
	}
	table := [][]string{{xName, "SPAMeR cycles", "speedup vs VL"}}
	for _, p := range points {
		table = append(table, []string{fmt.Sprint(p.X), fmt.Sprint(p.Ticks), fmt.Sprintf("%.2fx", p.Speedup)})
	}
	report.Table(out, table, true)
	return nil
}
