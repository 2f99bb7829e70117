package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the buckets of the per-module CPU share, in report order.
// The first eighteen are the layers the benchmark attributes; the rest
// catch every other frame, so the shares always sum to one.
var cpuModules = []string{
	"sim", "stats", "failure", "overhead",
	"core", "model", "numopt", "sweep",
	"mpisim", "eventq", "heat",
	"fti", "erasure", "storage", "inject",
	"obs", "math", "runtime",
	"experiments", "speedup", "enc", "stdlib", "other",
}

// moduleOf maps a Go function name, as a profile records it, to its bucket
// in cpuModules: mlckpt/internal/<pkg> by package (sub-packages fold into
// their parent, so obs/attrib counts as obs), the math packages, the
// runtime (its internal packages and frames with no package too), the
// rest of the standard library, and "other" for everything else — the
// mlckpt facade and the benchmark itself.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.IndexAny(pkg, "[("); i >= 0 {
		pkg = pkg[:i] // type arguments and receivers may hold paths too
	}
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	} else {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "mlckpt/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		for _, m := range cpuModules[:len(cpuModules)-2] { // all but stdlib and other
			if m == name {
				return m
			}
		}
		return "other"
	}
	switch {
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "mlckpt" || strings.HasPrefix(pkg, "mlckpt/") || pkg == "main" || strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return "other"
	}
	return "stdlib"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each module's
// share of the sampled CPU time, attributed to the leaf frame of every
// sample (the innermost inlined function), plus the total sampled seconds.
func cpuShares(profile []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	value := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			value = i
		}
	}
	byModule := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if value < 0 || value >= len(s.values) {
			return nil, 0, errors.New("cpu profile: sample without a cpu value")
		}
		v := float64(s.values[value])
		fn := "[unknown]"
		if len(s.locations) > 0 {
			if lines := p.locations[s.locations[0]]; len(lines) > 0 {
				fn = p.str(p.functions[lines[0]])
			}
		}
		byModule[moduleOf(fn)] += v
		total += v
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares[m] = 0
		if total > 0 {
			shares[m] = byModule[m] / total
		}
	}
	return shares, total / 1e9, nil
}

// profile holds the parts of a pprof profile.proto the grouping needs.
type profile struct {
	sampleTypes []uint64 // string index of each value's type
	samples     []profileSample
	locations   map[uint64][]uint64 // location id → function ids, leaf first
	functions   map[uint64]uint64   // function id → name string index
	strings     []string
}

type profileSample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// decodeProfile parses the uncompressed profile.proto message. Field
// numbers are those of github.com/google/pprof/proto/profile.proto:
// Profile{sample_type=1, sample=2, location=4, function=5, string_table=6},
// ValueType{type=1}, Sample{location_id=1, value=2},
// Location{id=1, line=4}, Line{function_id=1}, Function{id=1, name=2}.
func decodeProfile(data []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1:
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					p.sampleTypes = append(p.sampleTypes, v)
				}
				return nil
			})
		case 2:
			var s profileSample
			err := eachField(b, func(f int, v uint64, packed []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locations, v, packed)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, packed); err != nil {
						return err
					}
					for _, u := range vals {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, line []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(line, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field's values, whether the
// encoder wrote one varint (packed == nil) or a packed run.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		u, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("truncated packed varint")
		}
		*dst = append(*dst, u)
		packed = packed[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, calling fn with the
// field number and either a varint value (b == nil) or a length-delimited
// payload. Fixed-width fields are skipped.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("truncated fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("truncated fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
