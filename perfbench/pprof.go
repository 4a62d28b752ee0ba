package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is a gzipped profile.proto message. The benchmark reads
// only what the leaf-frame attribution needs: each sample's first location
// and value, each location's innermost line's function, and each
// function's name. This small decoder keeps the module free of
// dependencies outside the standard library.

// leafModules attributes every CPU sample to the module of its leaf frame
// and returns the share of samples per module, in percent, together with
// the number of samples.
func leafModules(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]uint64{} // function id → string index
		locFunc   = map[uint64]uint64{} // location id → leaf function id
		sampleLoc []uint64
		sampleVal []int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample: only its first (leaf) location and first value count
			var loc uint64
			var val int64
			gotLoc, gotVal := false, false
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				first := v
				if w == 2 { // packed repeated field
					first, _ = readVarint(b)
				}
				switch {
				case n == 1 && !gotLoc:
					loc, gotLoc = first, true
				case n == 2 && !gotVal:
					val, gotVal = int64(first), true
				}
				return nil
			}); err != nil {
				return err
			}
			if gotLoc {
				sampleLoc = append(sampleLoc, loc)
				sampleVal = append(sampleVal, val)
			}
		case 4: // location
			var id, fn uint64
			haveFn := false
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !haveFn: // first line = innermost frame
					haveFn = true
					return eachField(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for i, loc := range sampleLoc {
		name := ""
		if si := funcName[locFunc[loc]]; int(si) < len(strs) {
			name = strs[si]
		}
		counts[moduleOf(name)] += sampleVal[i]
		total += sampleVal[i]
	}
	shares := make(map[string]float64, len(counts))
	for m, c := range counts {
		shares[m] = 100 * float64(c) / float64(total)
	}
	return shares, total, nil
}

// moduleOf maps a fully qualified function name onto the layer it belongs
// to: a rentplan/internal package (sub-packages fold into their parent,
// and optimize, the Nelder–Mead fitter, into arima), the Go runtime (with
// the assembly helpers of internal/bytealg), the benchmark itself (package
// main, or its import path in a test binary), or the rest of the standard
// library.
func moduleOf(fn string) string {
	const internal = "rentplan/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		m := fn[len(internal):]
		if i := strings.IndexAny(m, "./"); i >= 0 {
			m = m[:i]
		}
		if m == "optimize" {
			return "arima"
		}
		return m
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "rentplan/perfbench."):
		return "perfbench"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "internal/bytealg."):
		return "runtime"
	default:
		return "stdlib"
	}
}

// eachField walks the top-level fields of one protobuf message, handing
// varint and fixed fields as v and length-delimited fields as b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := readVarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = readVarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := readVarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// readVarint decodes one base-128 varint and returns it with its length
// (0 when msg is truncated).
func readVarint(msg []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(msg) && i < 10; i++ {
		x |= uint64(msg[i]&0x7f) << (7 * i)
		if msg[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
