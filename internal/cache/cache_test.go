package cache

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ppt/internal/sim"
	"ppt/internal/stats"
)

func testCache(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

func sampleValue() Value {
	return Value{
		Sum: stats.Summary{
			Flows:      1234,
			OverallAvg: 567890,
			SmallCount: 1000,
			SmallAvg:   111,
			SmallP99:   2222,
			LargeCount: 234,
			LargeAvg:   987654321,
			Truncated:  true,
			Unfinished: 7,
		},
		Extra: map[string]float64{
			"utilization": 0.9517,
			"drops":       41,
		},
	}
}

// bitExactValue holds the values a text codec would lose: negative
// zero, a NaN with a non-default payload, infinities, the smallest
// subnormal and the int64 extremes.
func bitExactValue() Value {
	return Value{
		Sum: stats.Summary{
			Flows:      1,
			OverallAvg: sim.Time(math.MaxInt64),
			SmallAvg:   sim.Time(math.MinInt64),
		},
		Extra: map[string]float64{
			"negzero": math.Copysign(0, -1),
			"nan":     math.Float64frombits(0x7ff8_0000_dead_beef),
			"inf":     math.Inf(1),
			"tiny":    5e-324, // smallest subnormal
		},
	}
}

func TestRoundTrip(t *testing.T) {
	c := testCache(t)
	key := c.NewKey("cell-a")
	want := sampleValue()
	c.Put(key, want)
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	st := c.Stats()
	if st.Stores != 1 || st.Bytes == 0 {
		t.Fatalf("stats after one Put: %+v", st)
	}
}

// TestBitExactness pins the raw-IEEE-754 promise: negative zero, NaN
// payloads, and MaxInt64 picoseconds survive a disk round trip
// bit-for-bit. A JSON-based codec fails every case here.
func TestBitExactness(t *testing.T) {
	c := testCache(t)
	want := bitExactValue()
	key := c.NewKey("bit-exact")
	c.Put(key, want)
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss")
	}
	if got.Sum != want.Sum {
		t.Fatalf("summary mismatch: got %+v want %+v", got.Sum, want.Sum)
	}
	for k, w := range want.Extra {
		g, ok := got.Extra[k]
		if !ok {
			t.Fatalf("extra %q lost", k)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("extra %q: bits %#x, want %#x", k, math.Float64bits(g), math.Float64bits(w))
		}
	}
	if math.Signbit(got.Extra["negzero"]) != true {
		t.Error("negative zero lost its sign")
	}
}

func TestEmptyExtrasStayNil(t *testing.T) {
	c := testCache(t)
	key := c.NewKey("no-extras")
	c.Put(key, Value{Sum: stats.Summary{Flows: 3}})
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss")
	}
	if got.Extra != nil {
		t.Fatalf("want nil Extra, got %+v", got.Extra)
	}
}

// TestSummarySchemaPinned fails when stats.Summary gains, loses, or
// retypes a field without a matching codec change + schemaVersion bump.
func TestSummarySchemaPinned(t *testing.T) {
	want := []struct{ name, typ string }{
		{"Flows", "int"},
		{"OverallAvg", "sim.Time"},
		{"SmallCount", "int"},
		{"SmallAvg", "sim.Time"},
		{"SmallP99", "sim.Time"},
		{"LargeCount", "int"},
		{"LargeAvg", "sim.Time"},
		{"Truncated", "bool"},
		{"Unfinished", "int"},
	}
	typ := reflect.TypeOf(stats.Summary{})
	if typ.NumField() != len(want) {
		t.Fatalf("stats.Summary has %d fields, codec encodes %d — update codec.go and bump schemaVersion", typ.NumField(), len(want))
	}
	for i, w := range want {
		f := typ.Field(i)
		if f.Name != w.name || f.Type.String() != w.typ {
			t.Fatalf("field %d is %s %s, codec expects %s %s — update codec.go and bump schemaVersion", i, f.Name, f.Type, w.name, w.typ)
		}
	}
}

// Corruption matrix: every defect must read as a clean miss.

func corrupt(t *testing.T, c *Cache, key Key, mutate func([]byte) []byte) {
	t.Helper()
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatalf("rewrite entry: %v", err)
	}
}

func TestCorruptEntriesReadAsMiss(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"garbage", func(b []byte) []byte {
			g := make([]byte, len(b))
			for i := range g {
				g[i] = byte(i*37 + 11)
			}
			return g
		}},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"wrong-version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:], schemaVersion+1)
			return b
		}},
		{"flipped-payload-bit", func(b []byte) []byte { b[headerLen+3] ^= 0x01; return b }},
		{"flipped-crc", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"trailing-junk", func(b []byte) []byte { return append(b, 0xaa, 0xbb) }},
		// A valid frame whose payload declares 2^32−1 extras: the count
		// must be checked against the bytes left before anything is
		// sized by it. It follows eight int64s and the Truncated byte.
		{"huge-extra-count", func(b []byte) []byte {
			payload := b[headerLen : len(b)-4]
			binary.LittleEndian.PutUint32(payload[8*8+1:], math.MaxUint32)
			binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(payload, castagnoli))
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCache(t)
			key := c.NewKey("victim-" + tc.name)
			c.Put(key, sampleValue())
			corrupt(t, c, key, tc.mutate)
			if v, ok := c.Get(key); ok {
				t.Fatalf("corrupt entry (%s) read as hit: %+v", tc.name, v)
			}
			if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
				t.Errorf("corrupt entry not removed (err=%v)", err)
			}
			// The slot is usable again.
			c.Put(key, sampleValue())
			if _, ok := c.Get(key); !ok {
				t.Error("re-Put after corruption still misses")
			}
		})
	}
}

func TestWrongKeyFileReadAsMiss(t *testing.T) {
	c := testCache(t)
	keyA := c.NewKey("a")
	keyB := c.NewKey("b")
	c.Put(keyA, sampleValue())
	// Copy A's entry into B's slot: framing and CRC are valid but the
	// stored key betrays the mismatch.
	data, err := os.ReadFile(c.path(keyA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(keyB), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(keyB); ok {
		t.Fatal("entry stored under the wrong file name read as hit")
	}
}

// TestConcurrentWriters races many goroutines Put-ing and Get-ing the
// same key: with temp+rename writes every read must be a whole entry
// (hit with valid content) or a clean miss — never a torn record. Run
// under -race this also pins the counter plumbing.
func TestConcurrentWriters(t *testing.T) {
	c := testCache(t)
	key := c.NewKey("contended")
	want := sampleValue()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Put(key, want)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if v, ok := c.Get(key); ok {
					if !reflect.DeepEqual(v, want) {
						t.Errorf("torn read: %+v", v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestDoComputesOnceAndHitsAfter(t *testing.T) {
	c := testCache(t)
	key := c.NewKey("cell")
	computes := 0
	compute := func() Value { computes++; return sampleValue() }

	v, out := c.Do(key, false, compute)
	if out.Hit || computes != 1 {
		t.Fatalf("first Do: outcome %+v, computes %d", out, computes)
	}
	v2, out2 := c.Do(key, false, compute)
	if !out2.Hit || out2.Shared || computes != 1 {
		t.Fatalf("second Do: outcome %+v, computes %d", out2, computes)
	}
	if !reflect.DeepEqual(v, v2) {
		t.Fatalf("hit returned different value: %+v vs %+v", v, v2)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDoSingleflightShares(t *testing.T) {
	c := testCache(t)
	key := c.NewKey("dedup")
	var computes, release = 0, make(chan struct{})
	var mu sync.Mutex
	compute := func() Value {
		mu.Lock()
		computes++
		mu.Unlock()
		<-release
		return sampleValue()
	}
	const n = 4
	results := make([]Outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = c.Do(key, false, compute)
		}(i)
	}
	// Let every goroutine reach Do before releasing the leader.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	mu.Lock()
	got := computes
	mu.Unlock()
	if got != 1 {
		t.Fatalf("%d computations, want 1", got)
	}
	shared := 0
	for _, out := range results {
		if out.Shared {
			shared++
		}
	}
	if shared != n-1 {
		t.Fatalf("%d shared outcomes, want %d (results %+v)", shared, n-1, results)
	}
}

func TestDoSharedValuesDontAlias(t *testing.T) {
	c := testCache(t)
	key := c.NewKey("alias")
	v1, _ := c.Do(key, false, sampleValue)
	v2, _ := c.Do(key, false, sampleValue)
	v1.Extra["utilization"] = -1
	if v2.Extra["utilization"] == -1 {
		t.Fatal("two Do results share one Extra map")
	}
}

// TestDoLeaderPanicReleasesWaiters pins the panic-safety of the
// singleflight: a waiter must not deadlock, and must recompute rather
// than inherit the leader's failure.
func TestDoLeaderPanicReleasesWaiters(t *testing.T) {
	c := testCache(t)
	key := c.NewKey("panicky")
	started := make(chan struct{})
	waiterDone := make(chan Outcome, 1)
	go func() {
		defer func() { recover() }()
		c.Do(key, false, func() Value {
			close(started)
			time.Sleep(50 * time.Millisecond)
			panic("cell failed")
		})
	}()
	<-started
	go func() {
		_, out := c.Do(key, false, sampleValue)
		waiterDone <- out
	}()
	select {
	case out := <-waiterDone:
		if out.Shared {
			t.Fatalf("waiter shared a panicked flight: %+v", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter deadlocked on panicked leader")
	}
}

func TestDoVerify(t *testing.T) {
	c := testCache(t)
	key := c.NewKey("verify")
	c.Put(key, sampleValue())

	// Clean verify: recomputation matches the stored entry.
	_, out := c.Do(key, true, sampleValue)
	if !out.Hit || out.Mismatch {
		t.Fatalf("clean verify outcome %+v", out)
	}
	if st := c.Stats(); st.Verified != 1 || st.Mismatches != 0 {
		t.Fatalf("stats %+v", st)
	}

	// Divergent verify: fresh computation differs → Mismatch, and the
	// fresh value is returned as ground truth.
	divergent := sampleValue()
	divergent.Sum.Flows++
	v, out := c.Do(key, true, func() Value { return divergent })
	if !out.Mismatch {
		t.Fatalf("divergent verify outcome %+v", out)
	}
	if v.Sum.Flows != divergent.Sum.Flows {
		t.Fatalf("verify mismatch returned stale value %+v", v.Sum)
	}
	if st := c.Stats(); st.Mismatches != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDoVerifyCatchesNaNAndSignDrift(t *testing.T) {
	c := testCache(t)
	key := c.NewKey("bits")
	stored := Value{Extra: map[string]float64{"x": math.Copysign(0, -1)}}
	c.Put(key, stored)
	// +0 vs -0 compare equal under ==, but the tripwire is bit-level.
	fresh := Value{Extra: map[string]float64{"x": 0}}
	if _, out := c.Do(key, true, func() Value { return fresh }); !out.Mismatch {
		t.Fatal("sign-of-zero drift not caught by verify")
	}
}

func TestEvictionMtimeLRU(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []Key
	for _, name := range []string{"old", "mid", "new"} {
		k := c.NewKey(name)
		keys = append(keys, k)
		c.Put(k, sampleValue())
	}
	entrySize := c.Stats().Bytes / 3
	// Age the entries explicitly so the LRU order is deterministic.
	now := time.Now()
	for i, k := range keys {
		stamp := now.Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(c.path(k), stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen with room for two entries: the oldest must go.
	c2, err := Open(dir, 2*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Evictions != 1 || st.Bytes != 2*entrySize {
		t.Fatalf("stats after capped reopen: %+v", st)
	}
	if _, ok := c2.Get(keys[0]); ok {
		t.Error("oldest entry survived eviction")
	}
	for _, k := range keys[1:] {
		if _, ok := c2.Get(k); !ok {
			t.Error("recent entry evicted")
		}
	}
	// A cap below everything clears the directory.
	c3, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := c3.Stats(); st.Bytes != 0 || st.Evictions != 2 {
		t.Fatalf("stats after tiny cap: %+v", st)
	}
}

func TestOpenRejectsUnwritableDir(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("root ignores file modes")
	}
	dir := t.TempDir()
	ro := filepath.Join(dir, "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ro, 0); err == nil {
		t.Fatal("Open accepted an unwritable directory")
	}
}

func TestKeyDependsOnEpochAndDesc(t *testing.T) {
	c := testCache(t)
	k1 := c.NewKey("desc")
	k2 := c.NewKey("desc2")
	if k1 == k2 {
		t.Fatal("different descriptors, same key")
	}
	c.SetEpoch("other-code")
	if c.NewKey("desc") == k1 {
		t.Fatal("different epoch, same key")
	}
}

func TestStatsDelta(t *testing.T) {
	c := testCache(t)
	key := c.NewKey("d")
	c.Do(key, false, sampleValue)
	before := c.Stats()
	c.Do(key, false, sampleValue)
	d := c.Stats().Delta(before)
	if d.Hits != 1 || d.Misses != 0 || d.Bytes == 0 {
		t.Fatalf("delta %+v", d)
	}
}
