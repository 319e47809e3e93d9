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

// hostLayers are the layers host CPU time is split into, in report order.
var hostLayers = []string{"raster", "framebuffer", "composite", "interconnect", "sim",
	"gpu", "orchestration", "trace", "experiments", "other"}

// pkgLayer maps the first path element of a chopin/internal package to its
// layer. Packages missing here (vecmath, colorspace, primitive, stats, obs)
// are helpers: like runtime frames, their samples count toward the nearest
// caller that belongs to a layer.
var pkgLayer = map[string]string{
	"raster": "raster", "shade": "raster", "texture": "raster",
	"framebuffer":  "framebuffer",
	"composite":    "composite",
	"interconnect": "interconnect",
	"sim":          "sim",
	"gpu":          "gpu",
	"multigpu":     "orchestration", "sfr": "orchestration", "exec": "orchestration",
	"core": "orchestration", "fault": "orchestration", "check": "orchestration",
	"trace": "trace", "scene": "trace",
	"experiments": "experiments", "runrec": "experiments",
}

const internalPrefix = "chopin/internal/"

// layerOf returns the layer of a fully qualified function name, or "" when
// the function's samples pass to its caller.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return pkgLayer[rest]
}

// cpuProfile is the part of a pprof CPU profile the layer split needs.
type cpuProfile struct {
	samples []profSample
	// locFuncs maps a location id to its function ids, innermost inlined
	// function first.
	locFuncs map[uint64][]uint64
	// funcName maps a function id to its name's string-table index.
	funcName map[uint64]uint64
	strs     []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds
}

var errTruncated = errors.New("profile: truncated protobuf")

// parseCPUProfile decodes a gzipped pprof profile as runtime/pprof writes
// it, using only the fields the layer split reads.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err = protoFields(raw, func(num, wire int, _ uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			return p.addSample(msg)
		case 4: // Location
			return p.addLocation(msg)
		case 5: // Function
			var id, name uint64
			err := protoFields(msg, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *cpuProfile) addSample(msg []byte) error {
	var s profSample
	var values []uint64
	err := protoFields(msg, func(num, wire int, v uint64, data []byte) error {
		var err error
		switch num {
		case 1:
			s.locs, err = appendUints(s.locs, wire, v, data)
		case 2:
			values, err = appendUints(values, wire, v, data)
		}
		return err
	})
	if len(values) > 0 {
		// CPU profiles carry [sample count, CPU nanoseconds]; weigh by time.
		s.value = int64(values[len(values)-1])
	}
	p.samples = append(p.samples, s)
	return err
}

func (p *cpuProfile) addLocation(msg []byte) error {
	var id uint64
	var funcs []uint64
	err := protoFields(msg, func(num, _ int, v uint64, data []byte) error {
		switch num {
		case 1:
			id = v
		case 4: // Line
			return protoFields(data, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					funcs = append(funcs, v)
				}
				return nil
			})
		}
		return nil
	})
	p.locFuncs[id] = funcs
	return err
}

// function returns the name of function id ("" when unknown).
func (p *cpuProfile) function(id uint64) string {
	if i, ok := p.funcName[id]; ok && i < uint64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

// layerShares splits the profile's CPU time by layer: each sample goes to
// the innermost frame that belongs to a layer, or to "other" when none
// does. The shares are percentages over every layer in hostLayers.
func (p *cpuProfile) layerShares() (map[string]float64, error) {
	by := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		layer := "other"
	walk:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if l := layerOf(p.function(fid)); l != "" {
					layer = l
					break walk
				}
			}
		}
		by[layer] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("profile: no CPU samples")
	}
	pct := make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		pct[l] = 100 * by[l] / total
	}
	return pct, nil
}

// protoFields calls fn for each field of the protobuf message b: v holds
// varint and fixed-width values, data the bytes of length-delimited fields.
func protoFields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field's values, packed or not.
func appendUints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
