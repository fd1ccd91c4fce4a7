package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// spans records the host time of named calls into the program's public
// entry points. A nil *spans records nothing, which is how untraced runs
// and halves pass it around.
type spans struct {
	mu  sync.Mutex
	agg map[string]*spanAgg
}

type spanAgg struct {
	n  int   // spans closed (or counts added)
	ns int64 // Σ duration in ns (or Σ added quantity)
}

func newSpans() *spans { return &spans{agg: make(map[string]*spanAgg)} }

// start opens a span and returns the function that closes it.
func (s *spans) start(name string) func() {
	if s == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { s.add(name, time.Since(t0).Nanoseconds()) }
}

// add accumulates a count under name (n is the number of events, ns the
// quantity).
func (s *spans) add(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	a := s.agg[name]
	if a == nil {
		a = &spanAgg{}
		s.agg[name] = a
	}
	a.n++
	a.ns += v
	s.mu.Unlock()
}

func (s *spans) get(name string) spanAgg {
	if s == nil {
		return spanAgg{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

func (s *spans) meanMs(name string) float64 {
	a := s.get(name)
	return ratio(float64(a.ns)/1e6, float64(a.n))
}

// cpuProfile is a CPU profile of the traced half, folded into self time per
// layer.
type cpuProfile struct {
	buf bytes.Buffer
}

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// layerOf maps a function's package path to the layer name the per-layer
// metrics use: the last element of a bulksc package path, or "runtime" for
// the Go runtime.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	case strings.HasPrefix(pkg, "bulksc/"):
		return pkg[strings.LastIndex(pkg, "/")+1:]
	}
	return pkg
}

// shares stops the profile and returns each layer's share of the sampled
// CPU time: self time (the innermost frame's layer), plus the pseudo-layer
// "history.write" for samples with a history.(*Writer) frame anywhere on
// the stack, since the writer spends its time in the JSON encoder it
// drives.
func (p *cpuProfile) shares() (map[string]float64, error) {
	pprof.StopCPUProfile()
	prof, err := parseProfile(&p.buf)
	if err != nil {
		return nil, err
	}
	self := make(map[string]float64)
	var total float64
	for _, s := range prof.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		if fns := prof.locFuncs[s.locs[0]]; len(fns) > 0 {
			self[layerOf(fns[0])] += v
		}
		for _, l := range s.locs {
			if hasWriterFrame(prof.locFuncs[l]) {
				self["history.write"] += v
				break
			}
		}
	}
	for k := range self {
		self[k] /= total
	}
	return self, nil
}

func hasWriterFrame(fns []string) bool {
	for _, f := range fns {
		if strings.HasPrefix(f, "bulksc/internal/history.(*Writer).") {
			return true
		}
	}
	return false
}

// profileLayers copies the profile shares into the per-layer metrics.
func profileLayers(r *result, sh map[string]float64) {
	for _, l := range []string{"sim", "proc", "chunk", "bdm", "sig", "arbiter", "directory",
		"sharerset", "cache", "lineset", "mem", "workload", "runtime", "sccheck", "sweepsrv"} {
		r.m[l+".self_share"] = sh[l]
	}
	r.m["history.write_self_share"] = sh["history.write"]
}

// ---------------------------------------------------------------------------
// A minimal reader for the gzipped protobuf profile runtime/pprof writes:
// just samples, locations and function names.
// ---------------------------------------------------------------------------

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

func parseProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = make(map[uint64]int64) // function id → string index
		locLines = make(map[uint64][]uint64)
		samples  []profSample
	)
	err = pbFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, w int, v uint64, _ []byte) error {
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
			var id uint64
			var name int64
			err := pbFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: make(map[uint64][]string, len(locLines))}
	for id, fns := range locLines {
		for _, f := range fns {
			if i := funcName[f]; i >= 0 && int(i) < len(strs) {
				p.locFuncs[id] = append(p.locFuncs[id], strs[i])
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field given either unpacked
// (one varint) or packed (length-delimited run of varints).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
