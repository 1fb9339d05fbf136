package stats

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
)

// feedSynthetic drives n completions with a realistic size/FCT mix —
// ~70% small flows, FCTs spanning several orders of magnitude, frequent
// exact duplicates — through every collector in cs, in the same order.
func feedSynthetic(t testing.TB, n int, seed int64, cs ...*Collector) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	start := sim.Time(0)
	for i := 0; i < n; i++ {
		start += sim.Time(rng.Int63n(50_000))
		size := int64(rng.Int63n(80_000) + 1)
		if rng.Intn(10) < 3 {
			size = SmallFlowMax + rng.Int63n(10_000_000) + 1
		}
		fct := sim.Time(rng.Int63n(int64(1) << uint(10+rng.Intn(30))))
		if rng.Intn(5) == 0 {
			fct = sim.Time(1 << 20) // exact-duplicate FCTs stress selection ties
		}
		for _, c := range cs {
			c.Complete(uint32(i+1), size, start, start+fct)
		}
	}
}

// TestSpillSummaryBitIdentical is the differential the spill design
// hangs on: a spilling collector's Summary must equal the in-memory
// one field for field — float means bit for bit — at 100k+ flows and
// across awkward chunk sizes.
func TestSpillSummaryBitIdentical(t *testing.T) {
	n := 120_000
	if testing.Short() {
		n = 20_000
	}
	for _, chunk := range []int{1, 7, 1024, 65_536, n + 1} {
		mem := NewCollector()
		sp := NewCollector()
		if err := sp.SetSpill(chunk); err != nil {
			t.Fatal(err)
		}
		feedSynthetic(t, n, 42, mem, sp)
		got, want := sp.Summarize(), mem.Summarize()
		if got != want {
			t.Fatalf("chunk %d: spilled summary %+v != in-memory %+v", chunk, got, want)
		}
		// Summarize is idempotent and non-destructive mid-run: complete
		// more flows, compare again.
		feedSynthetic(t, 500, 43, mem, sp)
		if got, want := sp.Summarize(), mem.Summarize(); got != want {
			t.Fatalf("chunk %d after resume: %+v != %+v", chunk, got, want)
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpillResidentBound pins the memory bound: across a large run the
// resident record count never exceeds the chunk size.
func TestSpillResidentBound(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	const chunk = 4096
	c := NewCollector()
	if err := c.SetSpill(chunk); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Reserve must not break the bound (transport.Run calls it with the
	// full flow count).
	c.Reserve(n)
	if len(c.records) != 0 || cap(c.sp.resident) > chunk {
		t.Fatalf("Reserve grew a spilling collector: %d records, %d resident words", cap(c.records), cap(c.sp.resident))
	}
	feedSynthetic(t, n, 7, c)
	if c.Count() != n {
		t.Fatalf("Count = %d, want %d", c.Count(), n)
	}
	if peak := c.ResidentPeak(); peak > chunk {
		t.Fatalf("resident peak %d exceeds chunk %d", peak, chunk)
	}
	if c.SpilledRecords() == 0 {
		t.Fatal("nothing spilled in a 1M-flow run")
	}
	s := c.Summarize()
	if s.Flows != n || s.SmallCount+s.LargeCount != n {
		t.Fatalf("summary lost flows: %+v", s)
	}
	if s.SmallP99 < s.SmallAvg/10 {
		t.Fatalf("implausible P99 %v vs avg %v", s.SmallP99, s.SmallAvg)
	}
}

// TestSpillEdgeCases covers the degenerate shapes: empty, fewer records
// than one chunk, all-small, all-large, single flow.
func TestSpillEdgeCases(t *testing.T) {
	check := func(name string, feed func(*Collector)) {
		mem, sp := NewCollector(), NewCollector()
		if err := sp.SetSpill(8); err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		feed(mem)
		feed(sp)
		if got, want := sp.Summarize(), mem.Summarize(); got != want {
			t.Fatalf("%s: %+v != %+v", name, got, want)
		}
	}
	check("empty", func(c *Collector) {})
	check("below one chunk", func(c *Collector) {
		for i := 0; i < 5; i++ {
			c.Complete(uint32(i+1), 1000, 0, sim.Time(100+i))
		}
	})
	check("all small", func(c *Collector) {
		for i := 0; i < 100; i++ {
			c.Complete(uint32(i+1), 50, sim.Time(i), sim.Time(i+1000+i*i))
		}
	})
	check("all large", func(c *Collector) {
		for i := 0; i < 100; i++ {
			c.Complete(uint32(i+1), SmallFlowMax+1, sim.Time(i), sim.Time(i+77777))
		}
	})
	check("single", func(c *Collector) {
		c.Complete(1, 10, 5, 5) // zero FCT exercises the +0.0 bit pattern
	})
}

// TestSpillGuards pins the mode's API guards: misuse panics or errors
// instead of silently returning wrong data.
func TestSpillGuards(t *testing.T) {
	c := NewCollector()
	if err := c.SetSpill(0); err == nil {
		t.Fatal("chunk 0 accepted")
	}
	c.Complete(1, 10, 0, 1)
	if err := c.SetSpill(8); err == nil {
		t.Fatal("SetSpill on a non-empty collector accepted")
	}

	sp := NewCollector()
	if err := sp.SetSpill(2); err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if sp.sp == nil {
		t.Fatal("not in spill mode after SetSpill")
	}
	sp.Complete(1, 10, 0, 1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic in spill mode", name)
			}
		}()
		f()
	}
	mustPanic("Records", func() { sp.Records() })
	mustPanic("MergeCanonical", func() { NewCollector().MergeCanonical(sp) })
	mustPanic("MergeCanonical dst", func() { sp.MergeCanonical(NewCollector()) })
	mustPanic("Slowdowns", func() { sp.Slowdowns(10*netsim.Gbps, sim.Microsecond) })
	mustPanic("Buckets", func() { sp.Buckets(DefaultBucketBounds) })
	var csv strings.Builder
	if err := sp.WriteCSV(&csv); err == nil || csv.Len() != 0 {
		t.Errorf("WriteCSV on a spilling collector: err %v, wrote %q", err, csv.String())
	}
}

// TestSpillResidentBytes pins spill mode's heap cost: one 8-byte word
// per resident completion plus the 64KiB I/O block, and a Summarize
// that allocates no more than its histogram and one read block. Heap
// bytes are TotalAlloc deltas on this one goroutine.
func TestSpillResidentBytes(t *testing.T) {
	const chunk = 1 << 16
	const slack = 4 << 10 // the spillState, the os.File and its name: ~400 bytes
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	// The process's first temp file pays one-time set-up; keep it out.
	warm := NewCollector()
	if err := warm.SetSpill(1); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	c := NewCollector()
	defer c.Close()
	filled := allocated(func() {
		if err := c.SetSpill(chunk); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < chunk-1; i++ {
			c.Complete(uint32(i+1), int64(1+i%(2*SmallFlowMax)), 0, sim.Time(i))
		}
	})
	if limit := uint64(8*chunk + 1<<16 + slack); filled > limit {
		t.Errorf("SetSpill(%d) + %d completions allocated %d bytes, want <= %d", chunk, chunk-1, filled, limit)
	}

	feedSynthetic(t, 3*chunk, 5, c) // spills
	if c.SpilledRecords() == 0 {
		t.Fatal("nothing spilled")
	}
	summed := allocated(func() { c.Summarize() })
	if limit := uint64(8<<digitBits + 1<<16 + slack); summed > limit {
		t.Errorf("Summarize allocated %d bytes, want <= %d (one histogram, one read block)", summed, limit)
	}
}

// BenchmarkSpillSummarize times Summarize over 100,000 completions at
// scale1M's chunk (65,536): one chunk spilled, the rest resident.
func BenchmarkSpillSummarize(b *testing.B) {
	c := NewCollector()
	if err := c.SetSpill(1 << 16); err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	feedSynthetic(b, 100_000, 42, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSummary = c.Summarize()
	}
}

var benchSummary Summary

// FuzzSpillMatchesInMemory decodes each input into a chunk size and a
// completion stream, feeds the stream to a spilling and an in-memory
// collector, and requires field-for-field equal Summaries, equal
// counts and a resident peak within the chunk. Each completion takes
// four input bytes: a size class, an FCT magnitude and two bytes of
// FCT, so streams reach both sides of SmallFlowMax, zero FCTs and FCTs
// above 2^53 ps.
func FuzzSpillMatchesInMemory(f *testing.F) {
	f.Add(uint8(7), []byte{})                                               // empty
	f.Add(uint8(7), []byte{0, 0, 0, 100, 0, 0, 0, 101, 0, 0, 0, 102})       // below one chunk
	f.Add(uint8(7), bytes.Repeat([]byte{0, 1, 7, 200}, 100))                // all small
	f.Add(uint8(7), bytes.Repeat([]byte{2, 2, 0x30, 0x11}, 100))            // all large
	f.Add(uint8(7), []byte{0, 0, 0, 0})                                     // single, zero FCT
	f.Add(uint8(0), []byte{1, 0, 0, 0, 3, 0, 0, 0, 0, 7, 0xFF, 0xFF})       // zero FCT on small and large
	f.Add(uint8(2), []byte{0, 5, 0xFF, 0xFF, 0, 5, 0xFF, 0xFE, 3, 5, 0, 1}) // above 2^53
	f.Fuzz(func(t *testing.T, chunkByte uint8, data []byte) {
		chunk := 1 + int(chunkByte)%64
		mem, sp := NewCollector(), NewCollector()
		if err := sp.SetSpill(chunk); err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		sizes := [4]int64{1, SmallFlowMax, SmallFlowMax + 1, 1 << 40}
		for i := 0; i+4 <= len(data); i += 4 {
			size := sizes[data[i]%4]
			// Magnitudes 1, 2^8, ..., 2^40 scale the 16 FCT bits, so
			// FCTs reach 2^56 ps.
			fct := sim.Time(binary.LittleEndian.Uint16(data[i+2:])) << (8 * (data[i+1] % 6))
			start := sim.Time(i)
			mem.Complete(uint32(i/4+1), size, start, start+fct)
			sp.Complete(uint32(i/4+1), size, start, start+fct)
		}
		if got, want := sp.Summarize(), mem.Summarize(); got != want {
			t.Fatalf("chunk %d: spilled %+v != in-memory %+v", chunk, got, want)
		}
		if sp.Count() != mem.Count() {
			t.Fatalf("chunk %d: Count %d != %d", chunk, sp.Count(), mem.Count())
		}
		if peak := sp.ResidentPeak(); peak > chunk {
			t.Fatalf("resident peak %d exceeds chunk %d", peak, chunk)
		}
	})
}
