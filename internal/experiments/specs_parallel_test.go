package experiments

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"spamer/internal/harness"
	"spamer/internal/sim"
	"spamer/internal/workloads"
)

// TestRunSpecsParallelMatchesSequential: the pooled runner reproduces
// Spec.Run outcome-for-outcome, at any worker count, in spec order.
func TestRunSpecsParallelMatchesSequential(t *testing.T) {
	specs := []Spec{
		{Benchmark: "ping-pong", Algorithms: []string{"vl", "tuned"}, Label: "a"},
		{Benchmark: "firewall", Algorithms: []string{"tuned", "vl"}, Label: "b"},
		{Benchmark: "ping-pong", Algorithms: []string{"0delay"}, Repeat: 2},
	}
	var want [][]Outcome
	for i := range specs {
		outs, err := specs[i].Run()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, outs)
	}
	for _, workers := range []int{1, 4} {
		results := RunSpecsParallel(context.Background(), specs, harness.Options{Workers: workers})
		if len(results) != len(specs) {
			t.Fatalf("workers=%d: results = %d", workers, len(results))
		}
		for i, r := range results {
			if r.Err != nil || r.Index != i {
				t.Fatalf("workers=%d spec %d: %+v", workers, i, r)
			}
			if !reflect.DeepEqual(r.Outcomes, want[i]) {
				t.Errorf("workers=%d spec %d:\n got %+v\nwant %+v", workers, i, r.Outcomes, want[i])
			}
		}
	}
}

// TestRunSpecsParallelIsolatesFailures: an invalid spec fails in its
// own slot; its neighbours still run.
func TestRunSpecsParallelIsolatesFailures(t *testing.T) {
	specs := []Spec{
		{Benchmark: "ping-pong", Algorithms: []string{"vl"}},
		{Benchmark: "no-such-benchmark"},
		{Benchmark: "firewall", Algorithms: []string{"vl"}},
	}
	results := RunSpecsParallel(context.Background(), specs, harness.Options{Workers: 2})
	if results[0].Err != nil || len(results[0].Outcomes) != 1 {
		t.Fatalf("spec 0: %+v", results[0])
	}
	if results[1].Err == nil || len(results[1].Outcomes) != 0 {
		t.Fatalf("spec 1 should have failed: %+v", results[1])
	}
	if results[2].Err != nil || len(results[2].Outcomes) != 1 {
		t.Fatalf("spec 2: %+v", results[2])
	}
}

// TestRunSpecsParallelContainsProcPanic: a panic raised inside a
// simulated process body — here Compute scheduling past the end of the
// tick range — fails only its own spec. The panic reaches the harness
// worker that runs the kernel, which records it as the run's error,
// and the rest of the batch completes.
func TestRunSpecsParallelContainsProcPanic(t *testing.T) {
	overflow := &workloads.Shape{Stages: 2, Messages: 2, ConsWork: ^uint64(0)}
	specs := []Spec{
		{Benchmark: "ping-pong", Algorithms: []string{"vl"}},
		{Shape: overflow, Algorithms: []string{"vl"}},
		{Benchmark: "firewall", Algorithms: []string{"vl", "tuned"}},
	}
	results := RunSpecsParallel(context.Background(), specs, harness.Options{Workers: 2})
	if results[0].Err != nil || len(results[0].Outcomes) != 1 {
		t.Fatalf("spec 0: %+v", results[0])
	}
	if err := results[1].Err; err == nil || !strings.Contains(err.Error(), "panic: sim: scheduling event") {
		t.Fatalf("spec 1: want the body's scheduling panic as its error, got %+v", results[1])
	}
	if results[2].Err != nil || len(results[2].Outcomes) != 2 {
		t.Fatalf("spec 2: %+v", results[2])
	}
}

// TestRunSpecsParallelReturnsCarriers: failed runs give their process
// carriers back. A deadlocked run, a watchdog panic, and a panic inside a
// process body each leave threads parked mid-run; System.Run drains them
// before the failure reaches the harness, so a service that keeps
// running user specs does not leak one parked coroutine per thread per
// failed run.
//
// Every carrier is a goroutine, parked either on the idle list or inside
// a live process. A first pass fills the idle list to the batch's need.
// After each later pass there are no live processes, so the goroutines
// that are not idle carriers must be back at their count after the first
// pass, and the goroutine total may not grow past it. The panicking
// body's own carrier ends with its panic: it leaves both counts, and the
// next spawn creates a fresh carrier in its place.
func TestRunSpecsParallelReturnsCarriers(t *testing.T) {
	specs := []Spec{
		{Benchmark: "ping-pong", Algorithms: []string{"vl"}, Fault: &FaultSpec{DropStash: 1}},
		{Shape: &workloads.Shape{Stages: 3, Messages: 4, ConsWork: 1 << 41}, Algorithms: []string{"vl"}},
		{Shape: &workloads.Shape{Stages: 3, Messages: 4, ConsWork: ^uint64(0)}, Algorithms: []string{"vl"}},
	}
	wants := []string{"deadlock", "watchdog deadline", "scheduling event"}
	// Harness workers exit asynchronously after a batch returns, so
	// counts are read once the goroutine total has settled.
	settled := func() (goroutines, idle int) {
		prev := -1
		for i := 0; i < 200; i++ {
			n := runtime.NumGoroutine()
			if n == prev {
				break
			}
			prev = n
			time.Sleep(5 * time.Millisecond)
		}
		return runtime.NumGoroutine(), sim.IdleCarriers()
	}
	var g0, idle0 int
	for pass := 0; pass < 3; pass++ {
		results := RunSpecsParallel(context.Background(), specs, harness.Options{Workers: 1})
		for i, r := range results {
			if r.Err == nil || !strings.Contains(r.Err.Error(), wants[i]) {
				t.Fatalf("pass %d spec %d: want a %q failure, got %+v", pass, i, wants[i], r)
			}
		}
		g, idle := settled()
		if pass == 0 {
			g0, idle0 = g, idle
			continue
		}
		if g-idle != g0-idle0 {
			t.Fatalf("pass %d: %d goroutines besides %d idle carriers, want %d besides %d (carriers left parked)",
				pass, g-idle, idle, g0-idle0, idle0)
		}
		if g > g0 {
			t.Fatalf("pass %d: goroutines grew from %d to %d", pass, g0, g)
		}
	}
}
