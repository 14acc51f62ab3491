package main

import (
	"context"
	"fmt"

	"spamer/internal/experiments"
	"spamer/internal/harness"
	"spamer/internal/report"
)

// runLatency regenerates the Figure 1 comparison: the cross-core
// message latency of a coherence-based software queue (Lc), the
// Virtual-Link hardware queue (Lv), and SPAMeR with speculative pushes
// (Ls), demonstrating Lc > Lv > Ls; exit status 1 if the ordering does
// not hold. The software-queue study then repeats the comparison at
// application level.
//
//	spamer-run latency
func runLatency(e *env, args []string) error {
	if err := e.parse(args); err != nil {
		return err
	}
	out := e.stdout
	r := experiments.Figure1()
	fmt.Fprintf(out, "Figure 1: cross-core message queue communication latency (%d messages, closed loop)\n\n", r.Messages)
	report.BarChart(out, "mean latency, cycles (lower is better):",
		[]string{"Lc coherence queue (MOESI)", "Lv Virtual-Link", "Ls SPAMeR"},
		[]float64{r.Lc, r.Lv, r.Ls}, "")
	fmt.Fprintln(out)
	if !(r.Lc > r.Lv && r.Lv > r.Ls) {
		fmt.Fprintln(out, "WARNING: expected ordering Lc > Lv > Ls not observed")
		return exitCode(1)
	}
	fmt.Fprintln(out, "ordering Lc > Lv > Ls reproduced")

	rows, err := experiments.SoftwareQueueStudy(context.Background(), harness.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "application-level comparison (end-to-end cycles):")
	table := [][]string{{"workload", "SW coherent queue", "Virtual-Link", "SPAMeR", "VL vs SW", "SPAMeR vs SW"}}
	for _, row := range rows {
		table = append(table, []string{
			row.Workload,
			fmt.Sprint(row.SWTicks), fmt.Sprint(row.VLTicks), fmt.Sprint(row.SpTicks),
			fmt.Sprintf("%.2fx", row.VLOverSW), fmt.Sprintf("%.2fx", row.SpOverSW),
		})
	}
	report.Table(out, table, true)
	return nil
}
