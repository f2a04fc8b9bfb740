package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of
// one unit of work share Run; Parent is 0 for a root span.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Run      int                `json:"run"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that returns zero.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	run   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRun starts a new run id; spans begun afterwards carry it.
func (t *tracer) setRun(run int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, StartNs: now})
	return len(t.spans)
}

// end closes span id, attaching the counters read at its boundary, and
// returns its duration.
func (t *tracer) end(id int, counters map[string]float64) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = now
	s.Counters = counters
	return time.Duration(s.EndNs - s.StartNs)
}

// spanTotal is the time spent in spans of one name.
type spanTotal struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	TotS  float64 `json:"total_s"`
	SelfS float64 `json:"self_s"`
}

// totals sums, per span name, the wall time of its spans and their self
// time: the span's duration minus the part of it its children cover
// (children of a campaign span overlap, so their union is subtracted).
func (t *tracer) totals() []spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	byName := map[string]*spanTotal{}
	var order []string
	for _, s := range t.spans {
		tot := byName[s.Name]
		if tot == nil {
			tot = &spanTotal{Name: s.Name}
			byName[s.Name] = tot
			order = append(order, s.Name)
		}
		d := s.EndNs - s.StartNs
		tot.Count++
		tot.TotS += float64(d) / 1e9
		tot.SelfS += float64(d-covered(kids[s.ID])) / 1e9
	}
	out := make([]spanTotal, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// ---------------------------------------------------------------------------
// CPU profile rollup.

// repoModule is the import path of the program under test, and
// benchPackage that of the benchmark, which nests inside it.
const (
	repoModule   = "deltasigma"
	benchPackage = repoModule + "/perfbench"
)

// Module names for samples that have no frame of the program under test.
const (
	moduleRuntime = "runtime"
	moduleBench   = "bench"
)

// packageOf returns the import path of a function name as the profile
// records it: "deltasigma/internal/sim.(*calQueue).pop" belongs to
// "deltasigma/internal/sim". The benchmark's own functions read "main." in
// the benchmark binary and "deltasigma/perfbench." in its test binary.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// moduleOf maps a function of the program under test to the layer it
// belongs to: the package's last path element, or "facade" for the root
// package. ok is false for functions outside the program, the
// benchmark's own included.
func moduleOf(fn string) (module string, ok bool) {
	pkg := packageOf(fn)
	switch {
	case pkg == benchPackage:
		return "", false
	case pkg == repoModule:
		return "facade", true
	case strings.HasPrefix(pkg, repoModule+"/"):
		return pkg[strings.LastIndexByte(pkg, '/')+1:], true
	}
	return "", false
}

// attribute names the layer a CPU sample counts against, given its stack
// innermost frame first: the innermost frame of the program under test,
// so map and malloc work count against the module that asked for it. A
// stack with no such frame belongs to the benchmark if it passes through
// the benchmark's own code, and to the Go runtime otherwise (GC workers,
// the scheduler).
func attribute(stack []string) string {
	for _, fn := range stack {
		if m, ok := moduleOf(fn); ok {
			return m
		}
		if pkg := packageOf(fn); pkg == "main" || pkg == benchPackage {
			return moduleBench
		}
	}
	return moduleRuntime
}

// profileShares decodes a CPU profile as runtime/pprof writes it and
// returns each layer's share of the sampled CPU time.
func profileShares(gz []byte) (map[string]float64, int, error) {
	stacks, weights, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byModule := map[string]float64{}
	var total float64
	for i, st := range stacks {
		byModule[attribute(st)] += weights[i]
		total += weights[i]
	}
	if total > 0 {
		for m := range byModule {
			byModule[m] /= total
		}
	}
	return byModule, len(stacks), nil
}

// decodeProfile reads the gzipped profile.proto message runtime/pprof
// writes and returns each sample's stack as function names, innermost
// first (inlined frames included), with the sample's last value (CPU
// nanoseconds for a CPU profile) as its weight.
func decodeProfile(gz []byte) ([][]string, []float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []sample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
	)
	// Field numbers are those of perftools.profiles.Profile.
	err = pbWalk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := pbWalk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					s.values = pbUints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbWalk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbWalk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbWalk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, 0, len(samples))
	weights := make([]float64, 0, len(samples))
	for _, s := range samples {
		var st []string
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				if si := funcNames[fid]; si < uint64(len(strs)) {
					st = append(st, strs[si])
				}
			}
		}
		var w float64
		if len(s.values) > 0 {
			w = float64(s.values[len(s.values)-1])
		}
		stacks = append(stacks, st)
		weights = append(weights, w)
	}
	return stacks, weights, nil
}

var errProto = errors.New("profile: malformed protobuf")

// pbWalk calls fn for every field of one protobuf message: v carries
// varint values, b the bytes of length-delimited fields. Fixed-width
// fields are skipped; the profile format uses none that matter here.
func pbWalk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field in either encoding: one
// varint (v), or a packed run of varints (b).
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
