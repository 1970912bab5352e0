package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one benchmark-side span around a call into a layer. Unit is the
// machine or litmus cell the span belongs to; Parent is 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Unit    string `json:"unit"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Events  uint64 `json:"events,omitempty"`
}

// tracer keeps spans in memory; they are written out once the run ends.
// A tracer that is off records nothing and reads no clock, so untraced
// rounds pay one branch per call site.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name, unit string, parent int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: unit, StartNS: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id and returns its duration (0 when tracing is off).
func (t *tracer) end(id int) time.Duration {
	if id == 0 {
		return 0
	}
	sp := &t.spans[id-1]
	sp.EndNS = int64(time.Since(t.t0))
	return time.Duration(sp.EndNS - sp.StartNS)
}

// setEvents records the simulated events dispatched inside span id.
func (t *tracer) setEvents(id int, n uint64) {
	if id != 0 {
		t.spans[id-1].Events = n
	}
}

// durations returns the durations of every closed span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, float64(sp.EndNS-sp.StartNS))
		}
	}
	return out
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Layers that CPU samples are attributed to. Every latr/internal/<module>
// frame counts toward its module; the ones not listed here, and the
// benchmark's own frames, are reported together as "other".
var cpuLayers = []string{"sim", "kernel", "tlb", "pt", "vm", "mem", "core", "shootdown", "metrics", "obs", "workload", "litmus", "gc"}

const repoPrefix = "latr/internal/"

// attribute assigns one CPU sample, given as function names from the
// innermost frame outwards, to a layer. The innermost repo frame decides;
// runtime and other standard-library frames (container/heap included)
// count toward the module that called them. A sample with no repo frame —
// a background GC worker, say — counts as "gc"; one whose innermost
// attributable frame is the benchmark's own code counts as "bench"; one
// inside the reference computation is no layer's time and gets "". alloc
// reports whether the sample was inside runtime.mallocgc below that frame.
func attribute(stack []string) (layer string, alloc bool) {
	for _, fn := range stack {
		if fn == "runtime.mallocgc" {
			alloc = true
		}
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i], alloc
			}
			return rest, alloc
		}
		if fn == "main.refPiece" {
			return "", false
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench", alloc
		}
	}
	return "gc", false
}

// cpuShares accumulates attributed CPU samples across profiles.
type cpuShares struct {
	total   int64
	byLayer map[string]int64
	alloc   map[string]int64
}

func (s *cpuShares) add(stack []string, n int64) {
	if s.byLayer == nil {
		s.byLayer, s.alloc = map[string]int64{}, map[string]int64{}
	}
	layer, alloc := attribute(stack)
	if layer == "" {
		return
	}
	s.total += n
	s.byLayer[layer] += n
	if alloc {
		s.alloc[layer] += n
	}
}

// share is layer's part of all samples; allocShare the part of all samples
// that layer spent under runtime.mallocgc.
func (s *cpuShares) share(layer string) float64      { return s.frac(s.byLayer[layer]) }
func (s *cpuShares) allocShare(layer string) float64 { return s.frac(s.alloc[layer]) }

// otherShare is everything outside cpuLayers: other repo modules and the
// benchmark itself.
func (s *cpuShares) otherShare() float64 {
	n := s.total
	for _, l := range cpuLayers {
		n -= s.byLayer[l]
	}
	return s.frac(n)
}

func (s *cpuShares) frac(n int64) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(n) / float64(s.total)
}

// addProfile decodes one gzipped pprof CPU profile (as runtime/pprof
// writes it) and attributes its samples.
func (s *cpuShares) addProfile(data []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, smp := range p.samples {
		var stack []string
		for _, loc := range smp.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		if len(smp.values) > 0 {
			s.add(stack, smp.values[0])
		}
	}
	return nil
}

// The pprof wire format is a protobuf message; these are the fields the
// attribution needs (profile.proto numbering).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	sampleLocation  = 1
	sampleValue     = 2
	locID           = 1
	locLine         = 4
	lineFunction    = 1
	funcID          = 1
	funcName        = 2
)

type profSampleRec struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples   []profSampleRec
	locFuncs  map[uint64][]uint64 // location → function ids, innermost first
	funcNames map[uint64]int64    // function → string-table index
	strings   []string
}

var errProto = errors.New("malformed protobuf")

// protoField is one decoded field: varint value, or bytes for wire type 2.
type protoField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// fields walks a message's top-level fields.
func fields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = varint(b); n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n := varint(b)
		if n == 0 {
			return dst, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := fields(raw, func(f protoField) error {
		switch f.num {
		case profSample:
			var smp profSampleRec
			var vals []uint64
			err := fields(f.b, func(g protoField) error {
				var err error
				switch g.num {
				case sampleLocation:
					smp.locs, err = uints(smp.locs, g)
				case sampleValue:
					vals, err = uints(vals, g)
				}
				return err
			})
			for _, v := range vals {
				smp.values = append(smp.values, int64(v))
			}
			p.samples = append(p.samples, smp)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := fields(f.b, func(g protoField) error {
				switch g.num {
				case locID:
					id = g.v
				case locLine:
					return fields(g.b, func(h protoField) error {
						if h.num == lineFunction {
							funcs = append(funcs, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(f.b, func(g protoField) error {
				switch g.num {
				case funcID:
					id = g.v
				case funcName:
					name = int64(g.v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
