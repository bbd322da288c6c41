package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// The simulate span cannot be split with spans: the simulator pulls
// translated events through per-thread cursors millions of times, and
// steady-state fast-forward engages only when the simulator sees the
// translate stream itself, so the cursors cannot be wrapped. Instead the
// traced replay runs under the Go CPU profiler, and the samples taken
// inside sim.SimulateStreamContext are split by the innermost extrap
// frame: internal/translate is translate cursor work, internal/trace is
// decode cursor work (the lazy expansion of XTRP2 patterns), anything
// else stays simulate. The shares rescale the simulate span's measured
// self time.

// cursorShares counts the simulate-span CPU samples of one or more
// profiles: all of them, and those in the translate and decode cursors.
type cursorShares struct {
	total, translate, decode int64
}

const (
	simEntry      = "extrap/internal/sim.SimulateStreamContext"
	pkgTranslate  = "extrap/internal/translate."
	pkgTrace      = "extrap/internal/trace."
	extrapPackage = "extrap/"
)

// share is n as a fraction of the simulate-span samples.
func (c *cursorShares) share(n int64) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(n) / float64(c.total)
}

// add attributes the CPU samples of a gzipped pprof profile.
func (c *cursorShares) add(gz []byte) error {
	prof, err := parseProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range prof.samples {
		frames := prof.frames(s.locs)
		if !slices.Contains(frames, simEntry) {
			continue
		}
		c.total += s.count
		for _, f := range frames { // innermost first
			if !strings.HasPrefix(f, extrapPackage) {
				continue
			}
			switch {
			case strings.HasPrefix(f, pkgTranslate):
				c.translate += s.count
			case strings.HasPrefix(f, pkgTrace):
				c.decode += s.count
			}
			break
		}
	}
	return nil
}

// profile is the subset of the pprof protobuf the attribution needs.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id → function ids, innermost first
	funcs   map[uint64]int64    // function id → name string index
	strs    []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// frames returns the function names of a sample's stack, innermost
// (including inlined frames) first.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fn := range p.locs[l] {
			if idx := p.funcs[fn]; idx >= 0 && idx < int64(len(p.strs)) {
				out = append(out, p.strs[idx])
			}
		}
	}
	return out
}

// parseProfile decodes the fields of a gzipped profile.proto message
// that cursorShares.add reads: samples (location ids, first value),
// locations (line function ids), functions (name) and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = walkFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			first := true
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			name := int64(-1)
			err := walkFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	return p, err
}

// walkFields calls fn for each field of a protobuf message: varint
// fields pass their value in v, length-delimited fields their bytes in
// b. Fixed-width fields are skipped.
func walkFields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(num, 0, buf[n:n+int(l)]); err != nil {
				return err
			}
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value
// when unpacked (b == nil), every varint in b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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
