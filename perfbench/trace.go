package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls. Spans of one operation share Op;
// Parent is the enclosing span (0 at the top).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0 time.Time
	// done, if set, runs once when the workload's timed phase ends: the
	// traced run stops its CPU profile and allocation counters there, so
	// the checks and model drives after the phase are not attributed.
	done  func()
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// phaseEnd marks the end of the workload's timed phase.
func (t *tracer) phaseEnd() {
	if t != nil && t.done != nil {
		t.done()
		t.done = nil
	}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op uint64) uint64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return t.next
}

// end closes span id.
func (t *tracer) end(id uint64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, parent, op uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return t.next
}

// durations lists the closed spans named name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.ms())
		}
	}
	return out
}

// write stores the spans (one JSON object per line, with self time) and
// the CPU profile under dir.
func (t *tracer) write(dir, workload string, seed uint64, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := os.WriteFile(base+".cpu.pprof", profile, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	child := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		enc.Encode(struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, s.End - s.Start - child[s.ID]})
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profile is a running CPU profile.
type profile struct {
	buf  bytes.Buffer
	data []byte
}

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and decodes its samples.
func (p *profile) stop() ([]sample, error) {
	pprof.StopCPUProfile()
	p.data = p.buf.Bytes()
	return decodeProfile(p.data)
}

// sample is one CPU profile sample: its stack (leaf first) and CPU time.
type sample struct {
	stack []string
	ns    int64
}

// cpuShares attributes CPU samples to layers by their leaf frame and
// measures the goroutine-handoff share: runtime leaf frames under a
// channel operation or the scheduler's park/ready path.
func cpuShares(samples []sample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	var handoff int64
	for _, s := range samples {
		if len(s.stack) == 0 {
			continue
		}
		total += s.ns
		layer := layerOf(s.stack[0])
		if strings.HasPrefix(s.stack[0], "internal/runtime/syscall.") && len(s.stack) > 1 {
			// A raw system call is charged to the layer that issued it
			// (the network poller's are the runtime's own).
			layer = layerOf(s.stack[1])
		}
		by[layer] += s.ns
		if layer == "runtime" && isHandoff(s.stack) {
			handoff += s.ns
		}
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l+".cpu_share"] = ratio(float64(by[l]), float64(total))
	}
	out["runtime.handoff_cpu_share"] = ratio(float64(handoff), float64(total))
	return out
}

var handoffFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.park_m", "runtime.schedule",
	"runtime.findRunnable", "runtime.mcall",
}

func isHandoff(stack []string) bool {
	for _, fn := range stack {
		for _, h := range handoffFrames {
			if fn == h || strings.HasPrefix(fn, h+".") {
				return true
			}
		}
	}
	return false
}

// layerOf maps a function name to its layer: the spamer package name,
// "runtime", "stdlib.net_json", or "other".
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "spamer":
		return "spamer"
	case strings.HasPrefix(pkg, "spamer/internal/"):
		return pkg[strings.LastIndexByte(pkg, '/')+1:]
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "encoding/json" || pkg == "reflect" ||
		pkg == "bufio" || pkg == "syscall" || pkg == "internal/poll" || strings.HasPrefix(pkg, "mime"):
		return "stdlib.net_json"
	}
	return "other"
}

// decodeProfile reads the samples of a gzipped pprof protobuf: just the
// fields a leaf-frame attribution needs (profile.proto: Profile.sample=2,
// location=4, function=5, string_table=6; Sample.location_id=1,
// value=2; Location.id=1, line=4; Line.function_id=1; Function.id=1,
// name=2).
func decodeProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs, vals []uint64
	}
	var (
		samples []rawSample
		strs    []string
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]uint64{} // function id -> string index
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s rawSample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.vals = appendVarints(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			first := true
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if first {
						first = false
						return protoFields(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5:
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := make([]string, 0, len(s.locs))
		for _, l := range s.locs {
			if idx := fnName[locFn[l]]; idx < uint64(len(strs)) {
				st = append(st, strs[idx])
			}
		}
		out = append(out, sample{stack: st, ns: int64(s.vals[len(s.vals)-1])})
	}
	return out, nil
}

// protoFields walks the top-level fields of a protobuf message, calling
// fn with the varint value (wire type 0) or the payload (wire type 2).
func protoFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field given either unpacked
// (one varint) or packed (a payload of varints).
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
