package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// The decoder mirrors the hand-rolled encoder of internal/prof: the
// profile.proto schema is small and stable, and only four messages
// matter here (Profile, Sample, Location with its Lines, Function).

// cpuSample is one stack of a CPU profile, leaf first, with the sampled
// value of the last sample type (cpu nanoseconds for runtime/pprof) and
// the string labels pprof.Do attached.
type cpuSample struct {
	stack  []string
	value  int64
	labels map[string]string
}

// protoReader walks the fields of one protobuf message.
type protoReader struct {
	b   []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if len(r.b) == 0 || shift > 63 {
			r.err = fmt.Errorf("pprof: truncated varint")
			r.b = nil
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

// next returns the next field: its number, its varint value (wire type
// 0) or its bytes (wire type 2). ok is false at the end or on an error.
func (r *protoReader) next() (field int, v uint64, data []byte, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, nil, false
	}
	tag := r.varint()
	field = int(tag >> 3)
	switch tag & 7 {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = fmt.Errorf("pprof: truncated fixed64")
			return 0, 0, nil, false
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if n > uint64(len(r.b)) {
			r.err = fmt.Errorf("pprof: truncated field %d", field)
			return 0, 0, nil, false
		}
		data, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = fmt.Errorf("pprof: truncated fixed32")
			return 0, 0, nil, false
		}
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("pprof: wire type %d", tag&7)
		return 0, 0, nil, false
	}
	return field, v, data, r.err == nil
}

// repeated appends a repeated varint field, packed or not.
func repeated(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	r := protoReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst
}

// decodeProfile reads a gzipped (or raw) pprof protobuf and resolves
// every sample's stack to function names, inlined frames included.
func decodeProfile(data []byte) ([]cpuSample, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64 // key, str
	}
	var (
		raws    []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location → function ids, innermost first
		fnNames = map[uint64]uint64{}   // function → name string index
	)
	top := protoReader{b: data}
	for {
		field, _, msg, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // sample
			var s rawSample
			r := protoReader{b: msg}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs = repeated(s.locs, v, d)
				case 2:
					s.values = repeated(s.values, v, d)
				case 3:
					var kv [2]uint64
					l := protoReader{b: d}
					for {
						lf, lv, _, ok := l.next()
						if !ok {
							break
						}
						if lf == 1 || lf == 2 {
							kv[lf-1] = lv
						}
					}
					if l.err != nil {
						return nil, l.err
					}
					s.labels = append(s.labels, kv)
				}
			}
			if r.err != nil {
				return nil, r.err
			}
			raws = append(raws, s)
		case 4: // location
			var id uint64
			var fns []uint64
			r := protoReader{b: msg}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // line
					l := protoReader{b: d}
					for {
						lf, lv, _, ok := l.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
					if l.err != nil {
						return nil, l.err
					}
				}
			}
			if r.err != nil {
				return nil, r.err
			}
			locFns[id] = fns
		case 5: // function
			var id, name uint64
			r := protoReader{b: msg}
			for {
				f, v, _, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if r.err != nil {
				return nil, r.err
			}
			fnNames[id] = name
		case 6: // string table
			strs = append(strs, string(msg))
		}
	}
	if top.err != nil {
		return nil, top.err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(raws))
	for _, s := range raws {
		cs := cpuSample{}
		if n := len(s.values); n > 0 {
			cs.value = int64(s.values[n-1])
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				cs.stack = append(cs.stack, str(fnNames[fn]))
			}
		}
		for _, kv := range s.labels {
			if kv[1] != 0 {
				if cs.labels == nil {
					cs.labels = map[string]string{}
				}
				cs.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// layerRule maps functions to one layer of the share table: a function
// belongs to the first rule one of whose prefixes its name starts with.
type layerRule struct {
	Name  string   `json:"name"`
	Match []string `json:"match"`
}

type layerMap struct {
	// Exclude drops a sample when any frame of its stack starts with one
	// of these prefixes: the benchmark's own reference workload.
	Exclude []string `json:"exclude"`
	// Transparent frames (copying, hashing, formatting, reflection) are
	// charged to the first frame above them that is not.
	Transparent []string    `json:"transparent"`
	Layers      []layerRule `json:"layers"`
}

func loadLayers() (*layerMap, error) {
	data, err := os.ReadFile(benchFile("layers.json"))
	if err != nil {
		return nil, err
	}
	var m layerMap
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return &m, nil
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerOf names the layer of a function, "cpu.other" when no rule
// matches.
func (m *layerMap) layerOf(fn string) string {
	for _, l := range m.Layers {
		if hasAnyPrefix(fn, l.Match) {
			return l.Name
		}
	}
	return "cpu.other"
}

// leaf returns the function a sample is charged to: its innermost frame
// that is not transparent, "" when there is none.
func (m *layerMap) leaf(s cpuSample) string {
	for _, fn := range s.stack {
		if !hasAnyPrefix(fn, m.Transparent) {
			return fn
		}
	}
	return ""
}

// shares attributes every sample to the layer of its leaf function and
// returns each layer's share of the sampled CPU time, plus the share of
// samples that carried the given label.
func (m *layerMap) shares(samples []cpuSample, labelKey, labelValue string) (map[string]float64, float64) {
	byLayer := map[string]float64{}
	var total, labeled float64
sample:
	for _, s := range samples {
		if len(s.stack) == 0 {
			continue
		}
		for _, fn := range s.stack {
			if hasAnyPrefix(fn, m.Exclude) {
				continue sample
			}
		}
		v := float64(s.value)
		total += v
		byLayer[m.layerOf(m.leaf(s))] += v
		if s.labels[labelKey] == labelValue {
			labeled += v
		}
	}
	if total == 0 {
		return byLayer, 0
	}
	for k := range byLayer {
		byLayer[k] /= total
	}
	return byLayer, labeled / total
}
