package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"spamer/internal/experiments"
)

// small runs each workload at its self-test size for a short phase.
func small(t *testing.T) options {
	return options{seed: defaultSeed, small: true, outDir: t.TempDir()}
}

const shortPhase = 300 * time.Millisecond

// TestMetricsMatchBenchmarkJSON keeps the metric lists of the program
// and of BENCHMARK.json in step, names and units alike.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, small(t)); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
}

// TestEveryMetricEmitted runs each workload untraced and traced at the
// self-test size: every check passes and every metric is printed with
// its unit.
func TestEveryMetricEmitted(t *testing.T) {
	for _, name := range []string{"stream", "paper-matrix", "service-mix"} {
		for _, traced := range []bool{false, true} {
			rep, err := measure(name, small(t), shortPhase, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", name, traced, d.name, m.Unit, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if rep.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, rep.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestPerturbedExpectationFails proves each workload's output check has
// teeth: a wrong expected output turns operations into failures.
func TestPerturbedExpectationFails(t *testing.T) {
	s := newStream(small(t))
	s.wantTicks++
	out, err := s.run(shortPhase, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 {
		t.Errorf("stream: perturbed tick pin gave no failed operation")
	}

	m := newMatrix(small(t))
	m.wantTicks = map[string]uint64{}
	for k, v := range matrixTicks {
		m.wantTicks[k] = v
	}
	m.wantTicks["incast/tuned"]++
	if out, err = m.run(shortPhase, nil); err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 {
		t.Errorf("paper-matrix: perturbed cell pin gave no failed operation")
	}

	sm, err := newServiceMix(small(t))
	if err != nil {
		t.Fatal(err)
	}
	sm.perturb = func(o []experiments.Outcome) { o[0].Ticks++ }
	if out, err = sm.run(shortPhase, nil); err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 {
		t.Errorf("service-mix: perturbed direct run gave no failed operation")
	}
}

// TestProfileAttribution checks the leaf-frame package mapping.
func TestProfileAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"spamer/internal/sim.(*Kernel).dispatchTick":     "sim",
		"spamer/internal/workloads/dag.(*Spec).Validate": "dag",
		"spamer/internal/harness.Run[...].func1":         "harness",
		"spamer.(*System).Run":                           "spamer",
		"runtime.gopark":                                 "runtime",
		"internal/runtime/atomic.(*Uint32).Load":         "runtime",
		"encoding/json.(*decodeState).object":            "stdlib.net_json",
		"net/http.(*conn).serve":                         "stdlib.net_json",
		"sort.Strings":                                   "other",
		"spamer/internal/experiments.Spec.Canonical":     "experiments",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
