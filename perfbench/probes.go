package main

import (
	"time"

	"spamer/internal/sim"
)

// probes times the two public sim primitives every simulated message
// pays for, on a bare kernel: event dispatch (AtFunc + Run) and a
// process switch (a Proc.Sleep round trip). Each is the median of five
// repetitions, in host ns per call.
func probes(small bool) map[string]float64 {
	n := 200_000
	if small {
		n = 2_000
	}
	var disp, sw []float64
	for r := 0; r < 5; r++ {
		disp = append(disp, dispatchNS(n))
		sw = append(sw, switchNS(n/4))
	}
	return map[string]float64{"sim.dispatch_ns": median(disp), "sim.switch_ns": median(sw)}
}

func dispatchNS(n int) float64 {
	k := sim.New()
	var fired uint64
	fn := func(uint64) { fired++ }
	start := time.Now()
	for i := 0; i < n; i++ {
		k.AtFunc(uint64(i), fn, 0)
	}
	k.Run()
	el := time.Since(start)
	if fired != uint64(n) || k.Executed() != uint64(n) {
		panic("perfbench: dispatch probe lost events")
	}
	return float64(el.Nanoseconds()) / float64(n)
}

func switchNS(n int) float64 {
	k := sim.New()
	k.Go("probe", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	start := time.Now()
	k.Run()
	el := time.Since(start)
	if k.Now() != uint64(n) || k.LiveProcs() != 0 {
		panic("perfbench: switch probe did not finish")
	}
	return float64(el.Nanoseconds()) / float64(n)
}
