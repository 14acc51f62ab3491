package experiments

import (
	"context"

	"spamer"
	"spamer/internal/harness"
	"spamer/internal/workloads"
)

// studyRun is one simulation of a study: a workload under one
// configuration, labelled for progress reports and errors.
type studyRun struct {
	label string
	w     *workloads.Workload
	cfg   spamer.Config
}

// runStudy executes a study's run list on the bounded worker pool of
// internal/harness and returns the results in list order, or the first
// failure. Every run is an independent, deterministic spamer.System,
// so the results are identical at any worker count. Cancellation is
// honoured at dispatch (a cancelled run never starts) and a runaway
// system is bounded by the kernel watchdog, whose panic the harness
// converts into the run's structured error.
func runStudy(ctx context.Context, runs []studyRun, scale int, opts harness.Options) ([]spamer.Result, error) {
	tasks := make([]harness.Task[spamer.Result], len(runs))
	for i, r := range runs {
		r.cfg.Deadline = 1 << 40
		tasks[i] = harness.Task[spamer.Result]{
			Label: r.label,
			Run: func(context.Context) (spamer.Result, error) {
				return r.w.Run(r.cfg, scale), nil
			},
		}
	}
	outs, _ := harness.Run(ctx, tasks, opts)
	return harness.Values(outs)
}
