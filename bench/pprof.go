package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the CPU profiles runtime/pprof writes: a
// gzipped profile.proto message. Only what attribution needs is decoded:
// samples → locations → functions → string table, plus the sampling
// period. The field numbers below are those of
// github.com/google/pprof/proto/profile.proto.

// cpuSample is one stack the profiler caught, innermost frame first
// (inlined frames expanded), with how many times it was seen and the CPU
// time those sightings stand for.
type cpuSample struct {
	Stack []string
	Count int64
	Nanos int64
}

// cpuProfile is a decoded CPU profile.
type cpuProfile struct {
	Samples     []cpuSample
	PeriodNanos int64
}

// protoField is one decoded field of a protobuf message: a varint value
// or the bytes of a length-delimited field.
type protoField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

var errTruncated = errors.New("pprof: truncated message")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// readFields splits a message into its fields.
func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, b, err = readVarint(b); err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			if uint64(len(rest)) < n {
				return nil, errTruncated
			}
			f.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedVarints reads a repeated integer field, which the encoder may
// have packed into one length-delimited run or written one by one.
func repeatedVarints(f protoField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// parseCPUProfile decodes one gzipped profile.proto.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := readFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	funcName := make(map[uint64]uint64) // function id → string index
	locFuncs := make(map[uint64][]uint64)
	type rawSample struct{ locs, vals []uint64 }
	var samples []rawSample
	prof := &cpuProfile{}
	for _, f := range top {
		switch f.num {
		case 2: // sample
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, sf := range fs {
				switch sf.num {
				case 1:
					if s.locs, err = repeatedVarints(sf, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if s.vals, err = repeatedVarints(sf, s.vals); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case 4: // location: id, then one line per (inlined) frame, innermost first
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.val
				case 4:
					line, err := readFields(lf.data)
					if err != nil {
						return nil, err
					}
					for _, x := range line {
						if x.num == 1 {
							fns = append(fns, x.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function: id, name
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		case 12:
			prof.PeriodNanos = int64(f.val)
		}
	}

	for _, s := range samples {
		// A CPU profile carries two values per sample: sightings and
		// nanoseconds.
		if len(s.vals) < 2 {
			return nil, fmt.Errorf("pprof: sample with %d values, want 2", len(s.vals))
		}
		cs := cpuSample{Count: int64(s.vals[0]), Nanos: int64(s.vals[1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("pprof: string index %d out of range", idx)
				}
				cs.Stack = append(cs.Stack, strs[idx])
			}
		}
		prof.Samples = append(prof.Samples, cs)
	}
	return prof, nil
}

// Attribution buckets beside the internal/<pkg> layers.
const (
	layerGC    = "runtime.gc"
	layerOther = "runtime.other"
)

const internalPrefix = "github.com/hpcio/das/internal/"

// gcRoots are the entry points of the runtime's background collector
// goroutines; a stack rooted in one of them is collector work no layer's
// frame is on.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf names the layer a stack's CPU time is charged to: the package
// of its innermost internal/<pkg> frame, so that scheduler, memmove and
// allocation work lands on the layer that caused it.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		pkg := fn[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return layerGC
			}
		}
	}
	return layerOther
}

// cpuByLayer sums a profile's CPU seconds per layer.
func cpuByLayer(p *cpuProfile, into map[string]float64) (samples int64) {
	for _, s := range p.Samples {
		into[layerOf(s.Stack)] += float64(s.Nanos) / 1e9
		samples += s.Count
	}
	return samples
}
