package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"spamer/internal/experiments"
	"spamer/internal/harness"
	"spamer/internal/profiling"
	"spamer/internal/report"
	"spamer/internal/workloads"
)

// runSweep regenerates Figure 11: the sensitivity of the tuned
// delay-prediction algorithm's parameters (ζ, τ, δ, α, β), plotting
// normalized end-to-end execution time ("delay") against the
// normalized dynamic energy of SRD pushes, per benchmark, with the
// baseline at (1, 1).
//
//	spamer-run sweep [-bench FIR,firewall,...] [-scale N] [-svg dir] [-parallel N]
func runSweep(e *env, args []string) error {
	benchList := e.flags.String("bench", strings.Join(workloads.Names(), ","),
		"comma-separated benchmarks to sweep")
	scale := e.scaleFlag()
	svgDir := e.svgFlag()
	parallel := e.parallelFlag()
	cpuprofile, memprofile := e.profileFlags()
	if err := e.parse(args); err != nil {
		return err
	}
	defer profiling.Start(*cpuprofile, *memprofile)()
	out := e.stdout

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
	}
	start := time.Now()
	runs := 0
	for _, name := range strings.Split(*benchList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		points, err := experiments.Figure11(context.Background(), name, *scale, e.progress(*parallel, "fig11 "+name))
		if err != nil {
			return err
		}
		runs += len(points)
		labels := make([]string, len(points))
		xs := make([]float64, len(points))
		ys := make([]float64, len(points))
		for i, p := range points {
			labels[i], xs[i], ys[i] = p.Label, p.DelayNorm, p.EnergyNorm
		}
		report.Scatter(out, "Figure 11: "+name, labels, xs, ys, "delay norm", "energy norm")
		if *svgDir != "" {
			err := writeSVG(fmt.Sprintf("%s/fig11-%s.svg", *svgDir, name), func(w io.Writer) error {
				return report.SVGScatter(w, "Figure 11: "+name, "delay (normalized)", "energy (normalized)", labels, xs, ys)
			})
			if err != nil {
				return err
			}
		}
		fmt.Fprintln(out)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(e.stderr, "sweep: %d simulations on %d workers in %v (%.1f runs/s)\n",
		runs, harness.Workers(*parallel), elapsed.Round(time.Millisecond),
		float64(runs)/elapsed.Seconds())
	fmt.Fprintln(out, "closer to the origin is better; VL(baseline) anchors (1, 1)")
	return nil
}
