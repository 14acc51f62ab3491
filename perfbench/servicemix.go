package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spamer/internal/experiments"
	"spamer/internal/fabric"
	"spamer/internal/service"
	"spamer/internal/traffic"
	"spamer/internal/workloads"
)

// serviceMix drives spamer-serve in its default configuration — a
// fabric coordinator with no workers, so every spec runs through local
// fallback — served in-process on loopback. nproc closed-loop clients
// each POST a job, follow its SSE stream to the terminal frame and GET
// its status. Jobs come in rounds of a seeded mix of three classes:
//
//   - fresh: a DAG scenario of scenarios/ with a new dag.seed, or a
//     small open-loop chain with a new arrival seed (misses both caches);
//   - repeat: an earlier fresh job respelled with permuted JSON keys
//     (hits the job-level LRU);
//   - overlap: a new list of two earlier fresh jobs' specs (misses the
//     job LRU, hits the fabric's per-spec store).
//
// Repeats and overlaps name only jobs of earlier rounds, which have
// finished, so the class of every job is known before it is sent.
//
// The class shares, the round size, the history window and the chain's
// shape are the benchmark's own choice: no trace of real traffic backs
// them. Per-class latencies are reported (service.fresh_p50_ms,
// service.hit_p50_ms, service.overlap_p50_ms) so a change can be judged
// apart from the weights.
type serviceMix struct {
	rng     *rand.Rand
	clients int
	// roundJobs is the job count of one round; rounds is the cap on
	// measured rounds (0 = until the time runs out).
	roundJobs, rounds int
	// scenarios holds the DAG scenario files fresh jobs are drawn from,
	// as read; each fresh spec is parsed from them anew, so no two specs
	// share memory.
	scenarios [][]byte
	// freshJobs records every fresh job of the phase, by fresh id.
	freshJobs []freshJob
	// perturb, when set, alters the direct-run reference a job is
	// checked against (self-test only).
	perturb func([]experiments.Outcome)
}

type jobClass int

const (
	classFresh jobClass = iota
	classRepeat
	classOverlap
)

var classNames = [...]string{"fresh", "repeat", "overlap"}

// freshJob is how a fresh job's spec is made: the workload kind and its
// new seed. The client keeps this rather than the spec, so its own
// bookkeeping stays small beside the daemon's memory.
type freshJob struct {
	kind int // an index into scenarioFiles, or len(scenarioFiles) for the open-loop chain
	seed uint64
}

// scenarioFiles are the DAG scenarios fresh jobs run, relative to the
// repository root: telemetry aggregation and MapReduce shuffle.
var scenarioFiles = []string{"scenarios/telemetry.json", "scenarios/shuffle.json"}

// spec is the fresh job's spec: a scenario with its dag.seed replaced,
// or the open-loop chain with the job's arrival seed.
func (s *serviceMix) spec(f freshJob) experiments.Spec {
	if f.kind < len(s.scenarios) {
		specs, err := experiments.ReadSpecs(bytes.NewReader(s.scenarios[f.kind]))
		if err != nil {
			panic(err) // parsed once already by loadScenarios
		}
		specs[0].Shape.DAG.Seed = f.seed
		return specs[0]
	}
	return experiments.Spec{Shape: &workloads.Shape{
		Stages: 2, Messages: 48, Lines: 2, Window: 4,
		Arrival: &traffic.Spec{Seed: f.seed, MeanGap: 240, Users: 4},
	}}
}

// loadScenarios reads scenarioFiles from the repository root: the
// working directory, or its parent when run from perfbench/ (the
// self-test).
func loadScenarios() ([][]byte, error) {
	root := "."
	if _, err := os.Stat(scenarioFiles[0]); err != nil {
		root = ".."
	}
	var out [][]byte
	for _, name := range scenarioFiles {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			return nil, fmt.Errorf("service-mix: %w", err)
		}
		specs, err := experiments.ReadSpecs(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("service-mix: %s: %w", name, err)
		}
		if len(specs) != 1 || specs[0].Shape == nil || specs[0].Shape.DAG == nil {
			return nil, fmt.Errorf("service-mix: %s: want one DAG scenario", name)
		}
		out = append(out, data)
	}
	return out, nil
}

// plan is one job to submit: its class, the fresh jobs whose specs it
// lists (one, or two for an overlap), and the request body.
type plan struct {
	class jobClass
	fresh []int
	specs []experiments.Spec
	body  []byte
}

// jobStatus is the part of GET /v1/jobs/{id} the client reads. The
// outcomes stay raw: the client only digests them, and the digest is
// checked against a direct run after the timed phase.
type jobStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Cached   bool            `json:"cached"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Outcomes json.RawMessage `json:"outcomes"`
}

// jobResult is what a client observed for one job.
type jobResult struct {
	class   jobClass
	fresh   []int
	round   int
	latency time.Duration // POST sent -> terminal SSE frame read
	id      string
	done    bool // terminal state "done"
	cached  bool
	digest  [sha256.Size]byte // of the compacted outcomes JSON
	err     error
	// messages is set by the check, from the direct runs.
	messages float64
}

func newServiceMix(o options) (*serviceMix, error) {
	scenarios, err := loadScenarios()
	if err != nil {
		return nil, err
	}
	s := &serviceMix{
		rng:       rand.New(rand.NewSource(int64(mix64(o.seed ^ 0x5e7)))),
		clients:   runtime.NumCPU(),
		roundJobs: 64,
		scenarios: scenarios,
	}
	if o.small {
		s.roundJobs, s.rounds = 6, 2
	}
	return s, nil
}

// newPlan builds the request for a job listing the given fresh jobs.
func (s *serviceMix) newPlan(class jobClass, fresh ...int) *plan {
	p := &plan{class: class, fresh: fresh}
	for _, id := range fresh {
		p.specs = append(p.specs, s.spec(s.freshJobs[id]))
	}
	body, err := json.Marshal(p.specs)
	if err != nil {
		panic(err) // a Spec is plain data
	}
	p.body = body
	return p
}

// historyJobs bounds the fresh jobs repeats and overlaps may name: the
// most recent ones, all finished and well inside both caches.
const historyJobs = 32

// round plans the next round. Round 0 is all fresh; later rounds mix
// 40% fresh, 40% repeats and 20% overlaps over the recent fresh jobs
// of earlier rounds (hist).
func (s *serviceMix) round(hist []*plan, used map[[2]int]bool) []*plan {
	plans := make([]*plan, s.roundJobs)
	for i := range plans {
		x := 0
		if len(hist) >= 2 {
			x = 1 + s.rng.Intn(10)
		}
		switch {
		case x > 8:
			plans[i] = s.overlap(hist, used)
		case x > 4:
			p := hist[s.rng.Intn(len(hist))]
			plans[i] = &plan{class: classRepeat, fresh: p.fresh, specs: p.specs, body: permuteKeys(p.body, s.rng)}
		}
		if plans[i] == nil {
			s.freshJobs = append(s.freshJobs, freshJob{kind: s.rng.Intn(len(s.scenarios) + 1), seed: s.rng.Uint64()})
			plans[i] = s.newPlan(classFresh, len(s.freshJobs)-1)
		}
	}
	return plans
}

// overlap joins the specs of two distinct earlier fresh jobs into a
// list never submitted before, or returns nil if it finds none.
func (s *serviceMix) overlap(hist []*plan, used map[[2]int]bool) *plan {
	for try := 0; try < 64; try++ {
		pair := [2]int{hist[s.rng.Intn(len(hist))].fresh[0], hist[s.rng.Intn(len(hist))].fresh[0]}
		if pair[0] == pair[1] || used[pair] {
			continue
		}
		used[pair] = true
		return s.newPlan(classOverlap, pair[0], pair[1])
	}
	return nil
}

// permuteKeys rewrites a JSON document with every object's keys in a
// seeded random order; numbers keep their exact spelling.
func permuteKeys(doc []byte, rng *rand.Rand) []byte {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		panic(err) // doc was produced by json.Marshal
	}
	var buf bytes.Buffer
	var write func(v any)
	write = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			buf.WriteByte('{')
			for i, k := range keys {
				if i > 0 {
					buf.WriteByte(',')
				}
				kb, _ := json.Marshal(k)
				buf.Write(kb)
				buf.WriteByte(':')
				write(x[k])
			}
			buf.WriteByte('}')
		case []any:
			buf.WriteByte('[')
			for i, e := range x {
				if i > 0 {
					buf.WriteByte(',')
				}
				write(e)
			}
			buf.WriteByte(']')
		default:
			b, _ := json.Marshal(x)
			buf.Write(b)
		}
	}
	write(v)
	return buf.Bytes()
}

// server is one in-process spamer-serve.
type server struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
}

// startServer builds the daemon exactly as spamer-serve's defaults do
// and returns once /healthz answers 200.
func startServer(client *http.Client) (*server, error) {
	coord := fabric.NewCoordinator(fabric.CoordinatorOptions{
		HeartbeatEvery:  2 * time.Second,
		DispatchTimeout: 10 * time.Minute,
		MaxAttempts:     3,
		StoreEntries:    4096,
	})
	srv := service.New(service.Options{QueueDepth: 64, JobWorkers: 1, CacheEntries: 256, Fabric: coord})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("service-mix: listen: %w", err)
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String()}
	go func() { s.served <- s.hs.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, errors.Join(fmt.Errorf("service-mix: server never became healthy: %v", err), s.stop())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon and waits for its HTTP server to exit.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.srv.Drain(ctx)
	herr := s.hs.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(derr, herr)
}

// counters scrapes /metrics into name -> value.
func (s *server) counters(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("service-mix: metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

// do runs one job the way a client does: POST, follow the SSE stream to
// the terminal frame, GET the status.
func (s *server) do(client *http.Client, p *plan, tr *tracer, op uint64) jobResult {
	r := jobResult{class: p.class, fresh: p.fresh}
	sp := tr.begin("service.job", 0, op)
	defer tr.end(sp)
	t0 := time.Now()
	sub := tr.begin("service.submit", sp, op)
	resp, err := client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(p.body))
	if err != nil {
		r.err = err
		return r
	}
	var st jobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tr.end(sub)
	// 200 is a cache hit or a job that finished before the answer; 429
	// (queue full) and anything else fail the job.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		r.err = fmt.Errorf("POST /v1/jobs: HTTP %d", resp.StatusCode)
		return r
	}
	if err != nil {
		r.err = fmt.Errorf("POST /v1/jobs: %w", err)
		return r
	}
	r.id = st.ID

	ev := tr.begin("service.events", sp, op)
	if err := awaitTerminal(client, s.base+"/v1/jobs/"+r.id+"/events"); err != nil {
		r.err = err
		return r
	}
	r.latency = time.Since(t0)
	tr.end(ev)

	stSpan := tr.begin("service.status", sp, op)
	resp, err = client.Get(s.base + "/v1/jobs/" + r.id)
	if err != nil {
		r.err = err
		return r
	}
	st = jobStatus{}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tr.end(stSpan)
	if err != nil {
		r.err = fmt.Errorf("GET /v1/jobs/%s: %w", r.id, err)
		return r
	}
	if st.Started != nil && st.Finished != nil {
		tr.add("service.queue", sp, op, st.Created, *st.Started)
		tr.add("service.exec", sp, op, *st.Started, *st.Finished)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, st.Outcomes); err != nil {
		r.err = fmt.Errorf("GET /v1/jobs/%s: outcomes: %w", r.id, err)
		return r
	}
	r.done, r.cached = st.State == service.StateDone, st.Cached
	r.digest = sha256.Sum256(compact.Bytes())
	return r
}

// awaitTerminal reads a job's SSE stream until its done/failed frame.
func awaitTerminal(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if line == "event: done\n" || line == "event: failed\n" {
			_, err = io.Copy(io.Discard, br)
			return err
		}
		if err != nil {
			return fmt.Errorf("events stream ended without a terminal frame: %w", err)
		}
	}
}

// setupsPerRound is how many daemons are built, seen healthy and
// stopped before each round to time set-up. Spread over the phase
// (a few hundred in 30 s), their median spans the host's swings in speed,
// which a burst of set-ups at the start would catch only one moment of.
const setupsPerRound = 2

// timeSetups builds n daemons one after another, appends the time each
// took to become healthy to setup, and stops each.
func timeSetups(client *http.Client, n int, setup []float64) ([]float64, error) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		srv, err := startServer(client)
		if err != nil {
			return setup, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if err := srv.stop(); err != nil {
			return setup, fmt.Errorf("service-mix: stop: %w", err)
		}
	}
	return setup, nil
}

func (s *serviceMix) run(d time.Duration, tr *tracer) (*outcome, error) {
	client := &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: s.clients, MaxIdleConnsPerHost: s.clients, DisableCompression: true},
	}
	defer client.CloseIdleConnections()

	// The daemon that serves the phase; set-up is timed on others.
	var setup []float64
	srv, err := startServer(client)
	if err != nil {
		return nil, err
	}
	before, err := srv.counters(client)
	if err != nil {
		return nil, err
	}

	s.freshJobs = nil
	var all []jobResult
	var wall []float64
	var hist []*plan
	used := map[[2]int]bool{}
	var op atomic.Uint64
	start := time.Now()
	// Round 0 is the warm-up: checked, not timed. At least one round is
	// timed however short d is.
	for r := 0; r <= 1 || (time.Since(start) < d && (s.rounds == 0 || r <= s.rounds)); r++ {
		if setup, err = timeSetups(client, setupsPerRound, setup); err != nil {
			return nil, errors.Join(err, srv.stop())
		}
		plans := s.round(hist, used)
		results := make([]jobResult, len(plans))
		var next atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < s.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(plans) {
						return
					}
					results[i] = srv.do(client, plans[i], tr, op.Add(1))
					results[i].round = r
				}
			}()
		}
		wg.Wait()
		wall = append(wall, time.Since(t0).Seconds())
		all = append(all, results...)
		for _, p := range plans {
			if p.class == classFresh {
				hist = append(hist, p)
			}
		}
		hist = hist[max(0, len(hist)-historyJobs):]
	}
	tr.phaseEnd()
	peak := peakMemMB()
	after, err := srv.counters(client)
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("service-mix: stop: %w", err)
	}
	out := s.check(all, before, after)
	s.metrics(out, all, setup, wall, peak)
	if tr != nil {
		s.layers(out, all, before, after, tr)
	}
	return out, nil
}

// directRun is one fresh spec's reference result: its outcomes as
// compact JSON and the messages they delivered.
type directRun struct {
	json     []byte
	messages float64
}

// directRuns runs the spec of every fresh job of the phase through a
// direct Spec.Run, on nproc goroutines, indexed by fresh id.
func (s *serviceMix) directRuns() ([]directRun, error) {
	res := make([]directRun, len(s.freshJobs))
	errs := make([]error, len(s.freshJobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(res) {
					return
				}
				sp := s.spec(s.freshJobs[i])
				outs, err := sp.Run()
				if err != nil {
					errs[i] = err
					continue
				}
				if s.perturb != nil {
					s.perturb(outs)
				}
				for _, o := range outs {
					res[i].messages += float64(o.Messages)
				}
				res[i].json, errs[i] = json.Marshal(outs)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("direct Spec.Run: %w", err)
	}
	return res, nil
}

// check verifies every job after the timed phase: terminal state, the
// cache behaviour of its class, and outcomes byte-equal to a direct
// Spec.Run of the same specs; then the counters every fresh job must
// raise. It also counts each job's messages, for msg_ns.
func (s *serviceMix) check(all []jobResult, before, after map[string]float64) *outcome {
	out := &outcome{layers: map[string]float64{}}
	direct, err := s.directRuns()
	if err != nil {
		logf("service-mix: %v", err)
		out.attempted, out.failed = len(all), len(all)
		return out
	}
	count := [3]int{}
	for i := range all {
		r := &all[i]
		out.attempted++
		count[r.class]++
		if r.err == nil {
			r.err = verify(r, direct)
		}
		if r.err != nil {
			out.failed++
			logf("service-mix: %s job %s: %v", classNames[r.class], r.id, r.err)
		}
		for _, id := range r.fresh {
			r.messages += direct[id].messages
		}
		out.msgs += r.messages
	}
	delta := func(name string) int { return int(after[name] - before[name]) }
	// Every fresh job and every overlap misses the job cache; every
	// fresh spec misses the per-spec store.
	if got, want := delta("spamer_serve_cache_misses_total"), count[classFresh]+count[classOverlap]; got != want {
		logf("service-mix: job-cache misses rose by %d, want %d", got, want)
		out.failed += max(1, abs(got-want))
	}
	if got, want := delta("spamer_fabric_store_misses_total"), count[classFresh]; got != want {
		logf("service-mix: spec-store misses rose by %d, want %d", got, want)
		out.failed += max(1, abs(got-want))
	}
	if got := delta(`spamer_serve_jobs_total{outcome="rejected"}`); got != 0 {
		logf("service-mix: %d jobs rejected", got)
		out.failed += got
	}
	out.ops = float64(len(all))
	logf("service-mix: %d jobs (fresh %d, repeat %d, overlap %d)", len(all),
		count[classFresh], count[classRepeat], count[classOverlap])
	return out
}

// verify checks one job against the direct runs of its fresh jobs.
func verify(r *jobResult, direct []directRun) error {
	wantCached := r.class == classRepeat
	if !r.done || r.cached != wantCached {
		return fmt.Errorf("done %v, cached %v", r.done, r.cached)
	}
	want := sha256.New()
	want.Write([]byte{'['})
	for i, id := range r.fresh {
		outs := direct[id].json
		if i > 0 {
			want.Write([]byte{','})
		}
		want.Write(outs[1 : len(outs)-1]) // splice the spec's outcome array
	}
	want.Write([]byte{']'})
	if !bytes.Equal(want.Sum(nil), r.digest[:]) {
		return fmt.Errorf("outcomes differ from a direct Spec.Run")
	}
	return nil
}

// metrics derives the end-to-end metrics from the checked jobs; the
// warm-up round is left out.
func (s *serviceMix) metrics(out *outcome, all []jobResult, setup, wall []float64, peak float64) {
	var lat []float64
	msgs := make([]float64, len(wall))
	for _, r := range all {
		if r.err != nil || r.round == 0 {
			continue
		}
		lat = append(lat, r.latency.Seconds()*1e3)
		msgs[r.round] += r.messages
	}
	var perMsg []float64
	for i := 1; i < len(wall); i++ {
		perMsg = append(perMsg, ratio(wall[i]*1e9, msgs[i]))
	}
	out.e2e = map[string]float64{
		"setup_s":     median(setup),
		"msg_ns":      median(perMsg),
		"wall_s":      median(wall[1:]),
		"job_p50_ms":  quantile(lat, 0.5),
		"job_p90_ms":  quantile(lat, 0.9),
		"jobs_per_s":  ratio(float64(len(lat)), sum(wall[1:])),
		"mem_peak_mb": peak,
	}
	out.primary = out.e2e["job_p50_ms"]
}

// layers derives the service, fabric and model per-layer metrics.
func (s *serviceMix) layers(out *outcome, all []jobResult, before, after map[string]float64, tr *tracer) {
	var byClass [3][]float64
	for _, r := range all {
		if r.err == nil && r.round > 0 {
			byClass[r.class] = append(byClass[r.class], r.latency.Seconds()*1e3)
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	out.layers = s.model(all)
	out.layers["service.submit_ms_p50"] = median(tr.durations("service.submit"))
	out.layers["service.queue_ms_p50"] = median(tr.durations("service.queue"))
	out.layers["service.exec_ms_p50"] = median(tr.durations("service.exec"))
	out.layers["service.hit_p50_ms"] = median(byClass[classRepeat])
	out.layers["service.fresh_p50_ms"] = median(byClass[classFresh])
	out.layers["service.overlap_p50_ms"] = median(byClass[classOverlap])
	h, m := delta("spamer_serve_cache_hits_total"), delta("spamer_serve_cache_misses_total")
	out.layers["service.cache_hit_ratio"] = ratio(h, h+m)
	out.layers["service.rejected"] = delta(`spamer_serve_jobs_total{outcome="rejected"}`)
	h, m = delta("spamer_fabric_store_hits_total"), delta("spamer_fabric_store_misses_total")
	out.layers["fabric.store_hit_ratio"] = ratio(h, h+m)
	out.layers["fabric.local_fallbacks"] = delta("spamer_fabric_local_fallbacks_total")
}

// model drives every fourth fresh spec directly for the simulated
// model, kernel and DAG build counters, and times Validate+HashSpecs of
// every job's spec list (outside the timed phase).
func (s *serviceMix) model(all []jobResult) map[string]float64 {
	var validate, dagBuild []float64
	for _, r := range all {
		specs := make([]experiments.Spec, len(r.fresh))
		for i, id := range r.fresh {
			specs[i] = s.spec(s.freshJobs[id])
		}
		t0 := time.Now()
		for i := range specs {
			_ = specs[i].Validate() // valid: the daemon ran it
		}
		experiments.HashSpecs(specs)
		validate = append(validate, time.Since(t0).Seconds()*1e6/float64(len(specs)))
	}
	var runs []simRun
	for id := 0; id < len(s.freshJobs); id += 4 {
		sp := s.spec(s.freshJobs[id])
		w, _ := sp.Workload()
		for _, alg := range sp.Canonical().Algorithms {
			run := drive(w, sp.SystemConfig(alg), 1, nil, 0, 0)
			runs = append(runs, run)
			if sp.Shape.DAG != nil {
				dagBuild = append(dagBuild, float64(run.build.Nanoseconds())/1e3)
			}
		}
	}
	m := modelLayers(runs)
	m["dag.build_us"] = median(dagBuild)
	m["experiments.validate_hash_us"] = median(validate)
	return m
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
