package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the profile.proto messages runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto), decoding only what the
// layer attribution needs: sample types, samples with their labels,
// locations and functions. Field numbers below are that schema's.

// profile is a decoded CPU profile.
type profile struct {
	// sampleTypes are "type/unit" per sample value index, e.g.
	// "samples/count" and "cpu/nanoseconds".
	sampleTypes []string
	samples     []profSample
	// locations maps a location id to its frames, innermost first (an
	// inlined call contributes one frame per function).
	locations map[uint64][]frame
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
	labels map[string]string
}

type frame struct {
	fn   string // fully qualified, e.g. "ppt/internal/sim.(*Scheduler).RunUntil"
	file string
}

// valueIndex returns the index of the sample value of the given type, or
// -1.
func (p *profile) valueIndex(typ string) int {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i
		}
	}
	return -1
}

var errTruncated = errors.New("profile: truncated message")

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// key reads a field key: the field number and wire type.
func (p *pbuf) key() (int, int, error) {
	k, err := p.varint()
	return int(k >> 3), int(k & 7), err
}

func (p *pbuf) bytes() ([]byte, error) {
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p.b)) {
		return nil, errTruncated
	}
	b := p.b[:n]
	p.b = p.b[n:]
	return b, nil
}

func (p *pbuf) skip(wire int) error {
	var n int
	switch wire {
	case 0:
		_, err := p.varint()
		return err
	case 1:
		n = 8
	case 2:
		_, err := p.bytes()
		return err
	case 5:
		n = 4
	default:
		return fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	if len(p.b) < n {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// varints reads a repeated varint field in either encoding: packed
// (wire type 2) or one element per key (wire type 0).
func (p *pbuf) varints(dst []uint64, wire int) ([]uint64, error) {
	if wire == 0 {
		v, err := p.varint()
		return append(dst, v), err
	}
	if wire != 2 {
		return dst, fmt.Errorf("profile: wire type %d for a varint field", wire)
	}
	b, err := p.bytes()
	if err != nil {
		return dst, err
	}
	in := pbuf{b}
	for len(in.b) > 0 {
		v, err := in.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// fields calls fn for every field of msg; fn consumes the value (or
// skips it).
func fields(msg []byte, fn func(num, wire int, p *pbuf) error) error {
	p := &pbuf{msg}
	for len(p.b) > 0 {
		num, wire, err := p.key()
		if err != nil {
			return err
		}
		if err := fn(num, wire, p); err != nil {
			return err
		}
	}
	return nil
}

// scalar reads a single varint field value.
func scalar(wire int, p *pbuf) (uint64, error) {
	if wire != 0 {
		return 0, fmt.Errorf("profile: wire type %d for a scalar field", wire)
	}
	return p.varint()
}

// parseProfile decodes a profile, gzip-compressed (as pprof writes it)
// or raw.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	// Strings are referenced by index into a table that may come last,
	// so collect indices first and resolve them at the end.
	type rawLabel struct{ key, str uint64 }
	type rawSample struct {
		locs   []uint64
		values []uint64
		labels []rawLabel
	}
	type rawFunc struct{ name, file uint64 }
	var (
		strs    []string
		types   [][2]uint64
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids
		funcs   = map[uint64]rawFunc{}
	)
	err := fields(data, func(num, wire int, p *pbuf) error {
		if num == 6 { // string_table
			b, err := p.bytes()
			strs = append(strs, string(b))
			return err
		}
		if num < 1 || num > 5 || num == 3 {
			return p.skip(wire)
		}
		msg, err := p.bytes()
		if err != nil {
			return err
		}
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err = fields(msg, func(n, w int, q *pbuf) error {
				if n == 1 || n == 2 {
					v, err := scalar(w, q)
					t[n-1] = v
					return err
				}
				return q.skip(w)
			})
			types = append(types, t)
		case 2: // sample
			var s rawSample
			err = fields(msg, func(n, w int, q *pbuf) error {
				var err error
				switch n {
				case 1:
					s.locs, err = q.varints(s.locs, w)
				case 2:
					s.values, err = q.varints(s.values, w)
				case 3:
					var lb []byte
					if lb, err = q.bytes(); err != nil {
						return err
					}
					var l rawLabel
					err = fields(lb, func(n, w int, r *pbuf) error {
						switch n {
						case 1:
							v, err := scalar(w, r)
							l.key = v
							return err
						case 2:
							v, err := scalar(w, r)
							l.str = v
							return err
						}
						return r.skip(w)
					})
					s.labels = append(s.labels, l)
				default:
					err = q.skip(w)
				}
				return err
			})
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = fields(msg, func(n, w int, q *pbuf) error {
				switch n {
				case 1:
					v, err := scalar(w, q)
					id = v
					return err
				case 4: // line
					lb, err := q.bytes()
					if err != nil {
						return err
					}
					return fields(lb, func(n, w int, r *pbuf) error {
						if n == 1 {
							v, err := scalar(w, r)
							fns = append(fns, v)
							return err
						}
						return r.skip(w)
					})
				}
				return q.skip(w)
			})
			locs[id] = fns
		case 5: // function
			var id uint64
			var f rawFunc
			err = fields(msg, func(n, w int, q *pbuf) error {
				var err error
				switch n {
				case 1:
					id, err = scalar(w, q)
				case 2:
					f.name, err = scalar(w, q)
				case 4:
					f.file, err = scalar(w, q)
				default:
					err = q.skip(w)
				}
				return err
			})
			funcs[id] = f
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	p := &profile{locations: make(map[uint64][]frame, len(locs))}
	for _, t := range types {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, typ+"/"+unit)
	}
	for id, fns := range locs {
		frames := make([]frame, 0, len(fns))
		for _, fid := range fns {
			f, ok := funcs[fid]
			if !ok {
				return nil, fmt.Errorf("profile: location %d names unknown function %d", id, fid)
			}
			name, err := str(f.name)
			if err != nil {
				return nil, err
			}
			file, err := str(f.file)
			if err != nil {
				return nil, err
			}
			frames = append(frames, frame{fn: name, file: file})
		}
		p.locations[id] = frames
	}
	for _, rs := range samples {
		s := profSample{locs: rs.locs, values: make([]int64, len(rs.values))}
		for i, v := range rs.values {
			s.values[i] = int64(v)
		}
		for _, l := range rs.labels {
			k, err := str(l.key)
			if err != nil {
				return nil, err
			}
			v, err := str(l.str)
			if err != nil {
				return nil, err
			}
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[k] = v
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}
