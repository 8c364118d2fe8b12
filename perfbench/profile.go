package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// layers are the repository modules a CPU profile is attributed to, in
// budget-table order. A sample is charged to the innermost frame on its
// stack that belongs to a repository package, the program's main package,
// or the standard library's crypto; a stack with none is runtime work.
var layers = []string{"mqtt", "protocol", "meterd", "aggregator", "core", "sim", "consensus", "blockchain", "crypto", "store", "telemetry", "runtime"}

// cpuShares attributes a pprof CPU profile to layers. Each cpu.<layer>
// share is that layer's sampled CPU over cpu, the process's measured CPU
// time over the profile's window; cpu.unattributed is what the samples
// miss, cpu.syscall the share of samples inside a system call. mainLayer
// names the layer of the profiled program's own main package.
func cpuShares(data []byte, cpu time.Duration, mainLayer string) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]float64{}
	var total, sys float64
	for _, s := range p.samples {
		total += s.cpuNs
		layer, inSyscall := "runtime", false
		charged := false
		for _, fn := range s.stack {
			if !inSyscall && (strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.")) {
				inSyscall = true
			}
			if charged {
				continue
			}
			if l := layerOf(fn, mainLayer); l != "" {
				layer, charged = l, true
			}
		}
		byLayer[layer] += s.cpuNs
		if inSyscall {
			sys += s.cpuNs
		}
	}
	out := map[string]float64{}
	for _, l := range layers {
		out["cpu."+l] = 0
	}
	if cpu <= 0 {
		return nil, errors.New("no CPU time measured over the profile window")
	}
	attributed := 0.0
	for l, ns := range byLayer {
		out["cpu."+l] = ns / float64(cpu)
		attributed += ns
	}
	out["cpu.syscall"] = sys / float64(cpu)
	out["cpu.unattributed"] = 1 - attributed/float64(cpu)
	return out, nil
}

// layerOf maps a profiled function name to its layer, or "" when the frame
// belongs to no layer (standard library, runtime).
func layerOf(fn, mainLayer string) string {
	switch {
	case strings.HasPrefix(fn, "decentmeter/internal/"):
		pkg := fn[len("decentmeter/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg
	case strings.HasPrefix(fn, "decentmeter."):
		return "core" // the facade only forwards into core
	case strings.HasPrefix(fn, "main."):
		return mainLayer
	case strings.HasPrefix(fn, "crypto/"):
		return "crypto"
	}
	return ""
}

// A minimal reader for the pprof protocol buffer (profile.proto): only the
// fields that attribute CPU samples to functions.

type sample struct {
	stack []string // function names, leaf first, inlined frames expanded
	cpuNs float64
}

type profile struct{ samples []sample }

type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("pprof: varint overflow")
	return 0
}

// field returns the next field's number and wire type, with its varint
// value or its length-delimited bytes.
func (p *pbuf) field() (num int, typ int, v uint64, data []byte) {
	key := p.varint()
	num, typ = int(key>>3), int(key&7)
	switch typ {
	case 0:
		v = p.varint()
	case 1:
		if len(p.b) < 8 {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[8:]
	case 2:
		n := p.varint()
		if uint64(len(p.b)) < n {
			p.err = io.ErrUnexpectedEOF
			return
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[4:]
	default:
		p.err = fmt.Errorf("pprof: wire type %d", typ)
	}
	return
}

// uints decodes a repeated integer field that may be packed.
func uints(typ int, v uint64, data []byte) []uint64 {
	if typ == 0 {
		return []uint64{v}
	}
	var out []uint64
	q := &pbuf{b: data}
	for len(q.b) > 0 && q.err == nil {
		out = append(out, q.varint())
	}
	return out
}

func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs       []string
		sampleType [][2]uint64 // (type, unit) string indexes
		raws       []rawSample
		locFuncs   = map[uint64][]uint64{} // location -> function ids, leaf first
		funcName   = map[uint64]uint64{}   // function -> name string index
	)
	p := &pbuf{b: data}
	for len(p.b) > 0 && p.err == nil {
		num, _, _, d := p.field()
		if p.err != nil {
			break
		}
		switch num {
		case 1: // sample_type
			var st [2]uint64
			q := &pbuf{b: d}
			for len(q.b) > 0 && q.err == nil {
				n, _, v, _ := q.field()
				if n == 1 || n == 2 {
					st[n-1] = v
				}
			}
			sampleType = append(sampleType, st)
		case 2: // sample
			var rs rawSample
			q := &pbuf{b: d}
			for len(q.b) > 0 && q.err == nil {
				n, t, v, dd := q.field()
				switch n {
				case 1:
					rs.locs = append(rs.locs, uints(t, v, dd)...)
				case 2:
					rs.vals = append(rs.vals, uints(t, v, dd)...)
				}
			}
			raws = append(raws, rs)
		case 4: // location
			var id uint64
			var fns []uint64
			q := &pbuf{b: d}
			for len(q.b) > 0 && q.err == nil {
				n, _, v, dd := q.field()
				switch n {
				case 1:
					id = v
				case 4: // line
					l := &pbuf{b: dd}
					for len(l.b) > 0 && l.err == nil {
						ln, _, lv, _ := l.field()
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			q := &pbuf{b: d}
			for len(q.b) > 0 && q.err == nil {
				n, _, v, _ := q.field()
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(d))
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// The CPU value is the sample type with unit nanoseconds.
	vi := -1
	for i, st := range sampleType {
		if str(st[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("pprof: no nanosecond sample type (not a CPU profile)")
	}
	out := &profile{}
	for _, rs := range raws {
		if vi >= len(rs.vals) {
			continue
		}
		s := sample{cpuNs: float64(rs.vals[vi])}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		out.samples = append(out.samples, s)
	}
	return out, nil
}
