package cache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"ppt/internal/sim"
)

// Entry layout (all integers little-endian):
//
//	magic   [4]byte  "PPTC"
//	version u16      schemaVersion
//	key     [32]byte the entry's own content address (self-check)
//	plen    u32      payload length in bytes
//	payload [plen]   see encodePayload
//	crc     u32      CRC-32C (Castagnoli) of payload
//
// Payload:
//
//	Flows, OverallAvg, SmallCount, SmallAvg, SmallP99,
//	LargeCount, LargeAvg   as i64
//	Truncated              as one byte (0/1)
//	Unfinished             as i64
//	nExtra                 u32
//	then nExtra of: u16 key length | key bytes | u64 Float64bits(value)
//	sorted by key
//
// Floats travel as raw IEEE-754 bits: negative zero and NaN payloads
// round-trip exactly, and payload equality is bit equality of results.
// The layout is pinned by TestSummarySchemaPinned — adding a field to
// stats.Summary without bumping schemaVersion fails that test.

const (
	schemaVersion = 1
	fileSuffix    = ".c1"
	magic         = "PPTC"
	headerLen     = len(magic) + 2 + 32 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func encodePayload(v Value) []byte {
	keys := make([]string, 0, len(v.Extra))
	for k := range v.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	n := 8*8 + 1 + 4
	for _, k := range keys {
		n += 2 + len(k) + 8
	}
	buf := make([]byte, 0, n)
	i64 := func(x int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(x)) }

	s := v.Sum
	i64(int64(s.Flows))
	i64(int64(s.OverallAvg))
	i64(int64(s.SmallCount))
	i64(int64(s.SmallAvg))
	i64(int64(s.SmallP99))
	i64(int64(s.LargeCount))
	i64(int64(s.LargeAvg))
	if s.Truncated {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	i64(int64(s.Unfinished))

	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Extra[k]))
	}
	return buf
}

func decodePayload(buf []byte) (Value, error) {
	var v Value
	pos := 0
	i64 := func() (int64, error) {
		if pos+8 > len(buf) {
			return 0, fmt.Errorf("truncated payload at offset %d", pos)
		}
		x := int64(binary.LittleEndian.Uint64(buf[pos:]))
		pos += 8
		return x, nil
	}
	read := func(dst *int64) error {
		x, err := i64()
		*dst = x
		return err
	}

	var flows, smallCount, largeCount, unfinished int64
	var overallAvg, smallAvg, smallP99, largeAvg int64
	for _, dst := range []*int64{&flows, &overallAvg, &smallCount, &smallAvg, &smallP99, &largeCount, &largeAvg} {
		if err := read(dst); err != nil {
			return Value{}, err
		}
	}
	if pos+1 > len(buf) {
		return Value{}, fmt.Errorf("truncated payload at offset %d", pos)
	}
	switch buf[pos] {
	case 0:
		v.Sum.Truncated = false
	case 1:
		v.Sum.Truncated = true
	default:
		return Value{}, fmt.Errorf("bad bool byte %#x at offset %d", buf[pos], pos)
	}
	pos++
	if err := read(&unfinished); err != nil {
		return Value{}, err
	}
	v.Sum.Flows = int(flows)
	v.Sum.OverallAvg = sim.Time(overallAvg)
	v.Sum.SmallCount = int(smallCount)
	v.Sum.SmallAvg = sim.Time(smallAvg)
	v.Sum.SmallP99 = sim.Time(smallP99)
	v.Sum.LargeCount = int(largeCount)
	v.Sum.LargeAvg = sim.Time(largeAvg)
	v.Sum.Unfinished = int(unfinished)

	if pos+4 > len(buf) {
		return Value{}, fmt.Errorf("truncated payload at offset %d", pos)
	}
	nExtra := binary.LittleEndian.Uint32(buf[pos:])
	pos += 4
	// Each extra takes at least 2+8 bytes; check the declared count
	// against what is left before sizing anything by it.
	if left := len(buf) - pos; uint64(nExtra) > uint64(left/10) {
		return Value{}, fmt.Errorf("%d extras declared in %d bytes", nExtra, left)
	}
	if nExtra > 0 {
		v.Extra = make(map[string]float64, nExtra)
	}
	for i := uint32(0); i < nExtra; i++ {
		if pos+2 > len(buf) {
			return Value{}, fmt.Errorf("truncated extra #%d", i)
		}
		klen := int(binary.LittleEndian.Uint16(buf[pos:]))
		pos += 2
		if pos+klen+8 > len(buf) {
			return Value{}, fmt.Errorf("truncated extra #%d", i)
		}
		k := string(buf[pos : pos+klen])
		pos += klen
		v.Extra[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
		pos += 8
	}
	if pos != len(buf) {
		return Value{}, fmt.Errorf("%d trailing bytes after payload", len(buf)-pos)
	}
	return v, nil
}

// encodeRecord frames a payload into the on-disk entry format. The
// version parameter exists so tests can write mismatched entries.
func encodeRecord(version uint16, key Key, v Value) []byte {
	payload := encodePayload(v)
	buf := make([]byte, 0, headerLen+len(payload)+4)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = append(buf, key[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return buf
}

// decodeRecord validates framing, schema version, stored key, length,
// and checksum before handing the payload to decodePayload. Every
// failure is an error the caller treats as a miss.
func decodeRecord(data []byte, want Key) (Value, error) {
	if len(data) < headerLen+4 {
		return Value{}, fmt.Errorf("entry too short (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return Value{}, fmt.Errorf("bad magic %q", data[:len(magic)])
	}
	pos := len(magic)
	version := binary.LittleEndian.Uint16(data[pos:])
	pos += 2
	if version != schemaVersion {
		return Value{}, fmt.Errorf("schema version %d, want %d", version, schemaVersion)
	}
	var stored Key
	copy(stored[:], data[pos:])
	pos += 32
	if stored != want {
		return Value{}, fmt.Errorf("stored key %s does not match file name", stored)
	}
	plen := int(binary.LittleEndian.Uint32(data[pos:]))
	pos += 4
	if len(data) != headerLen+plen+4 {
		return Value{}, fmt.Errorf("entry length %d, want %d", len(data), headerLen+plen+4)
	}
	payload := data[pos : pos+plen]
	crc := binary.LittleEndian.Uint32(data[pos+plen:])
	if crc != crc32.Checksum(payload, castagnoli) {
		return Value{}, fmt.Errorf("payload checksum mismatch")
	}
	return decodePayload(payload)
}
