package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"spamer"
	"spamer/internal/harness"
	"spamer/internal/workloads"
)

// TestParallelRunsBitIdenticalToSequential is the harness determinism
// test: the same seed configs run sequentially and through the pool at
// high worker counts must produce per-run Results that are identical in
// every field (each sim.Kernel is single-threaded; parallelism exists
// only across independent systems).
func TestParallelRunsBitIdenticalToSequential(t *testing.T) {
	w, ok := workloads.ByName("ping-pong")
	if !ok {
		t.Fatal("ping-pong missing")
	}
	algs := spamer.Configs()

	var seq []spamer.Result
	for _, alg := range algs {
		seq = append(seq, w.Run(spamer.Config{Algorithm: alg, Deadline: 1 << 40}, 1))
	}

	var runs []studyRun
	for _, alg := range algs {
		runs = append(runs, studyRun{alg, w, spamer.Config{Algorithm: alg}})
	}
	par, err := runStudy(context.Background(), runs, 1, harness.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range par {
		if r != seq[i] {
			t.Fatalf("parallel run %d (%s) diverged:\nparallel:   %+v\nsequential: %+v",
				i, algs[i], r, seq[i])
		}
	}
}

// TestFigure11ParallelDeterministic: the assembled points are identical
// at any worker count.
func TestFigure11ParallelDeterministic(t *testing.T) {
	one, err := Figure11(context.Background(), "ping-pong", 1, harness.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Figure11(context.Background(), "ping-pong", 1, harness.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, many) {
		t.Fatalf("Figure 11 points differ across worker counts:\n1: %+v\n8: %+v", one, many)
	}
}

// TestRunMatrixParallelCancelled: a cancelled context aborts the sweep
// with a structured error instead of running anything.
func TestRunMatrixParallelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunMatrix(ctx, 1, harness.Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var he *harness.Error
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *harness.Error", err)
	}
}

// BenchmarkHarnessMatrix runs the full 8×4 evaluation matrix through
// the pool at one worker and at GOMAXPROCS workers — the wall-clock
// ratio on a multi-core host is the harness speedup.
func BenchmarkHarnessMatrix(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunMatrix(context.Background(), 1, harness.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
