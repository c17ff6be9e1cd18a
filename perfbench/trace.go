package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"stordep/internal/opt"
)

// spanLayers are the per-request layer spans, reported as mean
// milliseconds per request.
var spanLayers = []string{"decode", "build", "run", "report"}

// profileLayers are the run layer's phases as the CPU profile splits
// them, reported as shares of all CPU time in the timed loop: the
// optimizer's labelled phases for search, the trial steps plus the fold
// for Monte Carlo, the garbage collector's background work, and the rest.
var profileLayers = []string{
	"compile", "batch", "prune", "reduce",
	"sample", "replay", "measure", "fold",
	"gc", "other",
}

// counters accumulates the work counts the layers report.
type counters map[string]float64

// counterDef is one reported counter: num per den, times scale.
type counterDef struct {
	name, unit string
	num, den   string
	scale      float64
}

var counterNames = []counterDef{
	{"assessed_per_req", "count", "assessed", "requests", 1},
	{"pruned_per_req", "count", "pruned", "requests", 1},
	{"bounds_per_req", "count", "bounds", "requests", 1},
	{"events_per_trial", "count", "events", "trials", 1},
	{"eventless_trial_pct", "%", "eventless", "trials", 100},
	{"bound_checks_per_trial", "count", "boundChecks", "trials", 1},
}

// ratio returns the counter's value, 0 where its base is not counted on
// this workload.
func (c counters) ratio(d counterDef) float64 {
	if c[d.den] == 0 {
		return 0
	}
	return d.scale * c[d.num] / c[d.den]
}

// span is one traced interval. Spans of one request share Req; Parent
// indexes the span that caused this one (-1 for a request).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and a CPU profile of the timed loop. A nil
// tracer records nothing, so the untraced run pays only a nil check.
type tracer struct {
	origin time.Time
	spans  []span
	cur    int // the open request span
	prof   bytes.Buffer
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// request opens request i's span.
func (t *tracer) request(i int) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: "request", Req: i, Parent: -1, Start: time.Since(t.origin).Nanoseconds()})
	t.cur = len(t.spans) - 1
}

func (t *tracer) endRequest() {
	if t == nil {
		return
	}
	t.spans[t.cur].End = time.Since(t.origin).Nanoseconds()
}

// layer runs f in a span that the open request span caused.
func (t *tracer) layer(name string, f func() error) error {
	if t == nil {
		return f()
	}
	req := t.spans[t.cur]
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: req.Req, Parent: t.cur, Start: time.Since(t.origin).Nanoseconds()})
	err := f()
	t.spans[i].End = time.Since(t.origin).Nanoseconds()
	return err
}

// total returns the summed duration of every span named name, in
// milliseconds.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e6
}

// write saves the spans as JSON under .bench_build/trace and returns the
// file's path.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// startProfile starts the CPU profile, with the optimizer's phase labels
// on.
func (t *tracer) startProfile() error {
	opt.PhaseProfiling(true)
	return pprof.StartCPUProfile(&t.prof)
}

func (t *tracer) stopProfile() ([]profSample, error) {
	pprof.StopCPUProfile()
	opt.PhaseProfiling(false)
	return parseProfile(t.prof.Bytes())
}

// profSample is one CPU profile sample: its stack as function names, leaf
// first, its pprof labels and the CPU time it stands for.
type profSample struct {
	funcs  []string
	labels map[string]string
	nanos  int64
}

// gc reports whether the sample is the garbage collector's background
// work rather than a goroutine's own (an allocating goroutine's assists
// stay with its layer).
func (p profSample) gc() bool {
	for _, fn := range p.funcs {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return true
		}
	}
	return false
}

// cpuSplit is CPU time per layer, in nanoseconds.
type cpuSplit struct {
	byLayer map[string]int64
	nanos   int64
}

func attribute(samples []profSample, classify func(profSample) string) cpuSplit {
	c := cpuSplit{byLayer: map[string]int64{}}
	for _, s := range samples {
		c.byLayer[classify(s)] += s.nanos
		c.nanos += s.nanos
	}
	return c
}

// share returns the layer's share of CPU time in percent.
func (c cpuSplit) share(layer string) float64 {
	if c.nanos == 0 {
		return 0
	}
	return 100 * float64(c.byLayer[layer]) / float64(c.nanos)
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes,
// keeping only what attribution needs: each sample's stack, labels and
// last value (CPU nanoseconds).
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64 // string-table indexes of key and value
	}
	var (
		strs    []string
		samples []rawSample
		funcs   = map[uint64]uint64{}   // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendInts(s.locs, v, b)
				case 2:
					s.values = appendInts(s.values, v, b)
				case 3:
					var kv [2]uint64
					err := fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		p := profSample{nanos: int64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				p.funcs = append(p.funcs, str(funcs[f]))
			}
		}
		if len(s.labels) > 0 {
			p.labels = map[string]string{}
			for _, kv := range s.labels {
				p.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, p)
	}
	return out, nil
}

var errBadProto = errors.New("malformed protobuf")

// fields calls f for every field of the protobuf message msg: v holds a
// varint or fixed-width value, b a length-delimited payload (nil for the
// other wire types).
func fields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProto
		}
		msg = msg[n:]
		num := int(key >> 3)
		var (
			v uint64
			b []byte
		)
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errBadProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errBadProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errBadProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errBadProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errBadProto
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends one occurrence of a repeated integer field, which
// runtime/pprof writes packed (b holds varints) or as a single varint v.
func appendInts(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
