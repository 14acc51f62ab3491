package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"

	"spamer/internal/experiments"
	"spamer/internal/harness"
	"spamer/internal/report"
)

// runBench regenerates the core evaluation artifacts: Table 1 (hardware
// configuration), Table 2 (benchmarks), Figure 8 (speedup over
// Virtual-Link), Figure 9 (execution-time breakdown), Figure 10 (push
// failure rates and bus utilization), and the §4.3 library-inlining
// study.
//
//	spamer-run bench [-what all|config|workloads|fig8|fig9|fig10|inline] [-scale N] [-svg dir] [-parallel N]
func runBench(e *env, args []string) error {
	what := e.flags.String("what", "all", "which artifact to regenerate: all|config|workloads|fig8|fig9|fig10|inline")
	scale := e.scaleFlag()
	svgDir := e.svgFlag()
	parallel := e.parallelFlag()
	if err := e.parse(args); err != nil {
		return err
	}
	out := e.stdout

	var m *experiments.Matrix
	switch *what {
	case "all", "fig8", "fig9", "fig10":
		fmt.Fprintf(e.stderr, "running %d benchmarks x %d configurations (scale %d) on %d workers...\n",
			8, 4, *scale, harness.Workers(*parallel))
		var err error
		if m, err = experiments.RunMatrix(context.Background(), *scale, e.progress(*parallel, "matrix")); err != nil {
			return err
		}
		if *svgDir != "" {
			if err := writeMatrixSVGs(*svgDir, m); err != nil {
				return err
			}
			fmt.Fprintln(e.stderr, "wrote SVGs to", *svgDir)
		}
	}
	inline := func() error {
		rows, err := experiments.InlineStudy(context.Background(), *scale, e.progress(*parallel, "inline"))
		if err != nil {
			return err
		}
		printInline(out, rows)
		return nil
	}

	switch *what {
	case "all":
		printConfig(out)
		fmt.Fprintln(out)
		printWorkloads(out)
		fmt.Fprintln(out)
		printFig8(out, m)
		fmt.Fprintln(out)
		printFig9(out, m)
		fmt.Fprintln(out)
		printFig10(out, m)
		fmt.Fprintln(out)
		return inline()
	case "config":
		printConfig(out)
	case "workloads":
		printWorkloads(out)
	case "fig8":
		printFig8(out, m)
	case "fig9":
		printFig9(out, m)
	case "fig10":
		printFig10(out, m)
	case "inline":
		return inline()
	default:
		fmt.Fprintf(e.stderr, "unknown -what %q\n", *what)
		return exitCode(2)
	}
	return nil
}

// writeMatrixSVGs renders Figures 8 and 10 as SVG files.
func writeMatrixSVGs(dir string, m *experiments.Matrix) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	algs := m.Configs[1:]
	rows := experiments.Figure8(m)
	groups := make([]string, len(rows))
	speed := make([][]float64, len(rows))
	for i, r := range rows {
		groups[i] = r.Benchmark
		for _, a := range algs {
			speed[i] = append(speed[i], r.Speedups[a])
		}
	}
	cells := experiments.Figure10(m)
	fail := make([][]float64, len(m.Benchmarks))
	bus := make([][]float64, len(m.Benchmarks))
	for i, b := range m.Benchmarks {
		for _, a := range m.Configs {
			fail[i] = append(fail[i], cells[b][a].FailureRate*100)
			bus[i] = append(bus[i], cells[b][a].BusUtilization*100)
		}
	}
	for _, fig := range []struct {
		name, title    string
		groups, series []string
		vals           [][]float64
		ref            float64
	}{
		{"fig8-speedup.svg", "Figure 8: speedup over Virtual-Link", groups, algs, speed, 1.0},
		{"fig10a-failure.svg", "Figure 10a: push failure rate (%)", m.Benchmarks, m.Configs, fail, 0},
		{"fig10b-bus.svg", "Figure 10b: bus utilization (%)", m.Benchmarks, m.Configs, bus, 0},
	} {
		err := writeSVG(dir+"/"+fig.name, func(w io.Writer) error {
			return report.SVGGroupedBars(w, fig.title, fig.groups, fig.series, fig.vals, fig.ref)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSVG creates path and renders one figure into it.
func writeSVG(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printConfig(out io.Writer) {
	fmt.Fprintln(out, "Table 1: simulated hardware configuration")
	report.Table(out, experiments.Table1Rows(), true)
}

func printWorkloads(out io.Writer) {
	fmt.Fprintln(out, "Table 2: benchmarks")
	report.Table(out, experiments.Table2Rows(), true)
}

func printFig8(out io.Writer, m *experiments.Matrix) {
	rows := experiments.Figure8(m)
	algs := m.Configs[1:]
	fmt.Fprintln(out, "Figure 8: speedup over Virtual-Link (higher is better)")
	table := [][]string{append([]string{"benchmark", "VL(ms)"}, algs...)}
	groups := make([]string, len(rows))
	values := make([][]float64, len(rows))
	for i, r := range rows {
		row := []string{r.Benchmark, fmt.Sprintf("%.3f", r.BaselineMS)}
		groups[i] = r.Benchmark
		for _, a := range algs {
			row = append(row, fmt.Sprintf("%.2fx", r.Speedups[a]))
			values[i] = append(values[i], r.Speedups[a])
		}
		table = append(table, row)
	}
	geo := []string{"geomean", ""}
	for _, a := range algs {
		geo = append(geo, fmt.Sprintf("%.2fx", m.Geomean(a)))
	}
	table = append(table, geo)
	report.Table(out, table, true)
	fmt.Fprintln(out, "paper reference geomeans: 0delay 1.45x, adapt 1.25x, tuned 1.33x")
	fmt.Fprintln(out)
	report.GroupedBarChart(out, "Figure 8 (bars):", groups, algs, values, "x")
}

func printFig9(out io.Writer, m *experiments.Matrix) {
	cells := experiments.Figure9(m)
	fmt.Fprintln(out, "Figure 9: execution breakdown — avg consumer-cacheline cycles (millions), empty + non-empty")
	table := [][]string{{"benchmark", "config", "empty(M)", "non-empty(M)", "total(M)"}}
	for _, b := range m.Benchmarks {
		for _, alg := range m.Configs {
			c := cells[b][alg]
			table = append(table, []string{
				b, alg,
				fmt.Sprintf("%.3f", c.EmptyM),
				fmt.Sprintf("%.3f", c.NonEmptyM),
				fmt.Sprintf("%.3f", c.EmptyM+c.NonEmptyM),
			})
		}
	}
	report.Table(out, table, true)
}

func printFig10(out io.Writer, m *experiments.Matrix) {
	cells := experiments.Figure10(m)
	fmt.Fprintln(out, "Figure 10a: push failure rate / Figure 10b: bus utilization")
	table := [][]string{{"benchmark", "config", "failure", "bus util"}}
	for _, b := range m.Benchmarks {
		for _, alg := range m.Configs {
			c := cells[b][alg]
			table = append(table, []string{
				b, alg,
				fmt.Sprintf("%5.1f%%", c.FailureRate*100),
				fmt.Sprintf("%5.1f%%", c.BusUtilization*100),
			})
		}
	}
	report.Table(out, table, true)
}

func printInline(out io.Writer, rows []experiments.InlineStudyRow) {
	fmt.Fprintln(out, "§4.3 library inlining study (VL baseline, inlined vs function-call)")
	table := [][]string{{"benchmark", "inline speedup"}}
	prod := 1.0
	for _, r := range rows {
		table = append(table, []string{r.Benchmark, fmt.Sprintf("%.3fx", r.Speedup)})
		prod *= r.Speedup
	}
	n := float64(len(rows))
	table = append(table, []string{"geomean", fmt.Sprintf("%.3fx", math.Pow(prod, 1/n))})
	report.Table(out, table, true)
	fmt.Fprintln(out, "paper reference: 1.02x average")
}
