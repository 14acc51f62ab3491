package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
)

// def names one metric of the result line. The lists mirror
// BENCHMARK.json; the self-test keeps the two in step.
type def struct{ name, unit string }

// endToEnd is printed on untraced runs, for every workload.
var endToEnd = []def{
	{"setup_s", "s"},
	{"msg_ns", "ns"},
	{"wall_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"mem_peak_mb", "MB"},
}

// cpuLayers are the packages CPU profile samples are attributed to, by
// leaf frame; "stdlib.net_json" gathers the network, HTTP and JSON
// packages of the standard library.
var cpuLayers = []string{
	"runtime", "spamer", "sim", "noc", "vl", "core", "isa", "mem", "vlq",
	"workloads", "dag", "traffic", "experiments", "harness", "service",
	"fabric", "stdlib.net_json",
}

// perLayer is printed on traced runs, for every workload; a layer a
// workload does not reach reads 0.
var perLayer = func() []def {
	d := []def{
		{"sim.events_per_msg", "count"},
		{"sim.event_ns", "ns"},
		{"sim.procs_per_run", "count"},
		{"sim.dispatch_ns", "ns"},
		{"sim.switch_ns", "ns"},
		{"runtime.handoff_cpu_share", "share"},
		{"noc.packets_per_msg", "count"},
		{"noc.bus_util", "share"},
		{"vl.push_fail_ratio", "share"},
		{"vl.fetches_per_msg", "count"},
		{"core.spec_hit_ratio", "share"},
		{"core.specbuf_highwater", "count"},
		{"mem.empty_share", "share"},
	}
	for _, l := range cpuLayers {
		d = append(d, def{l + ".cpu_share", "share"})
	}
	return append(d,
		def{"harness.wait_ms_p50", "ms"},
		def{"harness.run_ms_p50", "ms"},
		def{"harness.run_ms_max", "ms"},
		def{"harness.busy_share", "share"},
		def{"experiments.validate_hash_us", "us"},
		def{"dag.build_us", "us"},
		def{"service.submit_ms_p50", "ms"},
		def{"service.queue_ms_p50", "ms"},
		def{"service.exec_ms_p50", "ms"},
		def{"service.hit_p50_ms", "ms"},
		def{"service.fresh_p50_ms", "ms"},
		def{"service.overlap_p50_ms", "ms"},
		def{"service.cache_hit_ratio", "share"},
		def{"service.rejected", "count"},
		def{"fabric.store_hit_ratio", "share"},
		def{"fabric.local_fallbacks", "count"},
		def{"host.allocs_per_msg", "count"},
		def{"host.alloc_mb", "MB"},
		def{"trace.overhead_share", "share"},
	)
}()

// quantile is the q-quantile of xs by linear interpolation (q in [0,1]);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocs is a snapshot of the host allocator counters.
type allocs struct{ mallocs, bytes uint64 }

func readAllocs() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{ms.Mallocs, ms.TotalAlloc}
}

// peakMemMB is the process's peak resident set in MB (getrusage
// ru_maxrss, the kernel's VmHWM).
func peakMemMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}

// hostEnv is the environment record printed before the result line.
func hostEnv(workload string, seed uint64) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goversion":  runtime.Version(),
		"commit":     commit,
	}
}
