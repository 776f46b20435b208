package main

// Per-layer CPU attribution for the traced phase. The span wrappers can
// only reach layers whose entry points the harness calls itself; the
// battery builds its schedulers and simulations inside the experiments
// package. So every traced phase also runs under the standard CPU
// profiler, and each sample is charged to the repository module of its
// innermost repository frame: standard-library and runtime frames
// (allocation, sorting, parsing) count toward the module that called
// them, and samples with no repository frame at all (background
// garbage collection) count as "runtime". That gives the same layer
// breakdown, by the same method, on every workload.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layers are the modules CPU time is charged to, in report order.
var layers = []string{
	"swf", "trace", "core", "sched", "sim", "des", "cluster", "metrics",
	"stats", "model", "outage", "experiments", "other", "bench", "runtime",
}

// layerPrefixes maps package paths to layers; other packages of the
// repository (meta, predict, warmstones, graph) are "other".
var layerPrefixes = []struct{ prefix, layer string }{
	{"parsched/internal/swf", "swf"},
	{"parsched/internal/workload", "trace"},
	{"parsched/internal/core", "core"},
	{"parsched/internal/sched", "sched"},
	{"parsched/internal/sim", "sim"},
	{"parsched/internal/des", "des"},
	{"parsched/internal/cluster", "cluster"},
	{"parsched/internal/metrics", "metrics"},
	{"parsched/internal/stats", "stats"},
	{"parsched/internal/model", "model"},
	{"parsched/internal/outage", "outage"},
	{"parsched/internal/experiments", "experiments"},
}

// layerOf returns the layer index a function symbol belongs to, or -1
// for standard-library and runtime functions.
func layerOf(symbol string) int {
	pkg := symbolPackage(symbol)
	name := ""
	switch {
	case pkg == "main" || pkg == "parsched/bench": // the latter in test binaries
		name = "bench"
	case strings.HasPrefix(pkg, "parsched/"):
		name = "other"
		for _, lp := range layerPrefixes {
			if pkg == lp.prefix || strings.HasPrefix(pkg, lp.prefix+"/") {
				name = lp.layer
				break
			}
		}
	default:
		return -1
	}
	for i, l := range layers {
		if l == name {
			return i
		}
	}
	return -1
}

// symbolPackage extracts the import path from a Go function symbol such
// as "parsched/internal/sched.(*EASY).schedule".
func symbolPackage(symbol string) string {
	slash := strings.LastIndexByte(symbol, '/')
	dot := strings.IndexByte(symbol[slash+1:], '.')
	if dot < 0 {
		return symbol
	}
	return symbol[:slash+1+dot]
}

// profileLayers runs f under the CPU profiler and returns the CPU
// nanoseconds charged to each entry of layers.
func profileLayers(f func()) ([]int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	f()
	pprof.StopCPUProfile()
	return attribute(buf.Bytes())
}

// attribute charges every sample of a gzipped pprof profile to a layer.
func attribute(gz []byte) ([]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]int64, len(layers))
	runtimeLayer := len(layers) - 1
	for _, s := range p.samples {
		layer := runtimeLayer
	frames:
		for _, loc := range s.locations {
			for _, fn := range p.locationFuncs[loc] {
				if l := layerOf(p.strings[p.funcNames[fn]]); l >= 0 {
					layer = l
					break frames
				}
			}
		}
		out[layer] += s.value
	}
	return out, nil
}

// The subset of the pprof protobuf schema (profile.proto) attribution
// needs. Field numbers are the schema's.
const (
	fieldSample      = 2 // Profile.sample
	fieldLocation    = 4 // Profile.location
	fieldFunction    = 5 // Profile.function
	fieldStringTable = 6 // Profile.string_table

	fieldSampleLocation = 1 // Sample.location_id, leaf first
	fieldSampleValue    = 2 // Sample.value: [samples, cpu ns]
	fieldLocationID     = 1 // Location.id
	fieldLocationLine   = 4 // Location.line, inlined callees first
	fieldLineFunction   = 1 // Line.function_id
	fieldFunctionID     = 1 // Function.id
	fieldFunctionName   = 2 // Function.name (string table index)

	wireVarint = 0
	wireBytes  = 2
)

type profSample struct {
	locations []uint64
	value     int64 // CPU nanoseconds
}

type profile struct {
	samples       []profSample
	locationFuncs map[uint64][]uint64
	funcNames     map[uint64]uint64
	strings       []string
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locationFuncs: map[uint64][]uint64{}, funcNames: map[uint64]uint64{}}
	err := eachField(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case fieldSample:
			var s profSample
			var values []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fieldSampleLocation:
					s.locations = appendPacked(s.locations, wire, v, data)
				case fieldSampleValue:
					values = appendPacked(values, wire, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 1 {
				s.value = int64(values[1])
			}
			p.samples = append(p.samples, s)
		case fieldLocation:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == fieldLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locationFuncs[id] = funcs
		case fieldFunction:
			var id, name uint64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case fieldStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx >= uint64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendPacked appends a repeated integer field's values, whether the
// encoder packed them into one length-delimited field or not.
func appendPacked(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == wireVarint {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks one protobuf message, handing every varint or
// length-delimited field to f; 32- and 64-bit fields are skipped.
func eachField(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = varint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case wireBytes:
			size, n := varint(b)
			if n == 0 || size > uint64(len(b)-n) {
				return errors.New("truncated length-delimited field")
			}
			data = b[n : n+int(size)]
			b = b[n+int(size):]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint; n is 0 when b is truncated.
func varint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
