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

// selfLayers are the buckets CPU samples are attributed to by self time.
// Every sample lands in exactly one, so a run's self shares sum to 100%.
var selfLayers = []string{
	"simdb.lock", "simdb.pool", "simdb.engine", "sim.zipf",
	"ml.ddpg", "mathx", "ml.rf", "ml.pca", "ga", "core",
	"tuner", "safety", "cloud", "workload", "checkpoint", "fleet",
	"telemetry", "parallel", "runtime.gc", "other",
}

// inclLayers are the layer groups reported by inclusive time: the share
// of samples with at least one frame in the group.
var inclLayers = map[string][]string{
	"simdb":      {"simdb.lock", "simdb.pool", "simdb.engine"},
	"simdb.lock": {"simdb.lock"},
	"simdb.pool": {"simdb.pool"},
	"sim.zipf":   {"sim.zipf"},
	"ml.ddpg":    {"ml.ddpg"},
	"mathx":      {"mathx"},
	"ml.rf":      {"ml.rf"},
	"ml.pca":     {"ml.pca"},
	"tuner":      {"tuner"},
	"safety":     {"safety"},
	"checkpoint": {"checkpoint"},
	"fleet":      {"fleet"},
	"parallel":   {"parallel"},
}

const repoPrefix = "github.com/hunter-cdb/hunter/internal/"

// repoLayers maps a repository package (below internal/) to its layer.
var repoLayers = map[string]string{
	"ml/ddpg": "ml.ddpg", "ml/nn": "ml.ddpg", "mathx": "mathx",
	"ml/rf": "ml.rf", "ml/pca": "ml.pca", "ga": "ga", "core": "core",
	"tuner": "tuner", "safety": "safety", "cloud": "cloud", "chaos": "cloud",
	"workload": "workload", "checkpoint": "checkpoint", "fleet": "fleet",
	"telemetry": "telemetry", "obsv": "telemetry", "parallel": "parallel",
}

// gcFrames are runtime function prefixes that belong to the collector.
var gcFrames = []string{
	"runtime.gc", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.markroot", "runtime.greyobject", "runtime.findObject", "runtime.bgsweep",
	"runtime.sweepone", "runtime.bgscavenge", "runtime.wbBufFlush", "runtime.(*gcWork)",
	"runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.(*gcControllerState)",
}

// frameLayer maps one stack frame to its layer, or "" for frames that
// belong to their caller's layer (math, sort, allocation, the shared RNG).
func frameLayer(fn, file string) string {
	switch {
	case strings.HasPrefix(fn, "math/rand.(*Zipf)"), strings.HasPrefix(fn, repoPrefix+"sim.(*Zipf)"):
		return "sim.zipf"
	case strings.HasPrefix(fn, "encoding/gob."):
		return "checkpoint"
	case strings.HasPrefix(fn, repoPrefix+"simdb."):
		switch {
		case strings.HasSuffix(file, "/lockmgr.go"):
			return "simdb.lock"
		case strings.HasSuffix(file, "/bufferpool.go"):
			return "simdb.pool"
		}
		return "simdb.engine"
	case strings.HasPrefix(fn, repoPrefix):
		rest := fn[len(repoPrefix):]
		pkg := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			pkg = rest[:i]
		}
		return repoLayers[pkg]
	case strings.HasPrefix(fn, "runtime."):
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return "runtime.gc"
			}
		}
	}
	return ""
}

// frame is one (possibly inlined) function in a sample's stack.
type frame struct{ fn, file string }

// cpuSample is one profile sample: its stack, leaf first, and its weight.
type cpuSample struct {
	stack  []frame
	weight int64
}

// layerShares attributes samples to layers. self gives each sample to the
// layer of its leaf-most frame that has one ("other" if none); incl gives
// each inclusive group the share of samples it appears in. Both are
// percentages of the total weight.
func layerShares(samples []cpuSample) (self, incl map[string]float64, total int64) {
	self = map[string]float64{}
	incl = map[string]float64{}
	for _, l := range selfLayers {
		self[l] = 0
	}
	for g := range inclLayers {
		incl[g] = 0
	}
	for _, s := range samples {
		total += s.weight
		owner := ""
		seen := map[string]bool{}
		for _, f := range s.stack {
			l := frameLayer(f.fn, f.file)
			if l == "" {
				continue
			}
			if owner == "" {
				owner = l
			}
			seen[l] = true
		}
		if owner == "" {
			owner = "other"
		}
		self[owner] += float64(s.weight)
		for g, members := range inclLayers {
			for _, m := range members {
				if seen[m] {
					incl[g] += float64(s.weight)
					break
				}
			}
		}
	}
	if total == 0 {
		return self, incl, 0
	}
	for k := range self {
		self[k] *= 100 / float64(total)
	}
	for k := range incl {
		incl[k] *= 100 / float64(total)
	}
	return self, incl, total
}

// parseCPUProfile decodes a runtime/pprof CPU profile (gzipped
// profile.proto) into weighted stacks, weighting each sample by its CPU
// nanoseconds. Only the fields the attribution needs are read.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		samples   []rawSample
		locLines  = map[uint64][]uint64{}
		funcName  = map[uint64]int64{}
		funcFile  = map[uint64]int64{}
		valueKind int
	)
	err = walkMessage(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkMessage(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkMessage(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					var fid uint64
					if err := walkMessage(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fid = v
						}
						return nil
					}); err != nil {
						return err
					}
					fns = append(fns, fid)
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name, file int64
			err := walkMessage(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcName[id], funcFile[id] = name, file
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		case 1: // sample_type: CPU profiles carry samples/count then cpu/nanoseconds
			valueKind++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		w := s.values[len(s.values)-1]
		var stack []frame
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				stack = append(stack, frame{fn: str(funcName[fid]), file: str(funcFile[fid])})
			}
		}
		out = append(out, cpuSample{stack: stack, weight: w})
	}
	if valueKind == 0 {
		return nil, errors.New("profile: no sample types")
	}
	return out, nil
}

// walkMessage iterates the fields of one protobuf message, passing
// varints as v and length-delimited payloads as b.
func walkMessage(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b != nil) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
