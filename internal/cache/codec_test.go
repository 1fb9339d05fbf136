package cache

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// frameRecord wraps raw payload bytes in a valid header and CRC, so a
// fuzzed payload gets past the framing checks into decodePayload.
func frameRecord(key Key, payload []byte) []byte {
	buf := encodeRecord(schemaVersion, key, Value{})[:headerLen]
	binary.LittleEndian.PutUint32(buf[headerLen-4:], uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
}

// FuzzDecodeRecord feeds arbitrary bytes to the entry decoder, once as
// a whole entry and once framed as a payload. Decoding must never
// panic or size an allocation by an unchecked count, and any value it
// accepts must survive an encode/decode round trip bit for bit.
func FuzzDecodeRecord(f *testing.F) {
	key := Key{1, 2, 3}
	for _, v := range []Value{sampleValue(), bitExactValue()} {
		f.Add(encodeRecord(schemaVersion, key, v))
		f.Add(encodePayload(v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, entry := range [][]byte{data, frameRecord(key, data)} {
			v, err := decodeRecord(entry, key)
			if err != nil {
				continue
			}
			again, err := decodeRecord(encodeRecord(schemaVersion, key, v), key)
			if err != nil {
				t.Fatalf("accepted value %+v does not decode after re-encoding: %v", v, err)
			}
			if !payloadEqual(v, again) {
				t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", again, v)
			}
		}
	})
}
