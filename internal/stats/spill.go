package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"ppt/internal/sim"
)

// Spill-and-merge: bounded-memory FCT collection for million-flow runs.
//
// In spill mode the collector keeps at most `chunk` resident
// completions, each as one int64 word: the FCT in picoseconds for a
// small flow, its bit complement ^FCT (always negative) for a large one.
// Spilling, summarizing and the P99 selection read nothing else of a
// record. When the words fill the chunk they are folded — in completion
// order — into running sums (overall/small/large totals and counts), and
// each small flow's FCT is appended to an anonymous temp file as a
// little-endian uint64. Resident memory is therefore capped at chunk×8
// bytes of words plus one 64KiB I/O block no matter how many flows
// complete; the only per-flow growth is 8 bytes of *file* per small
// flow, which the OS pages out.
//
// Determinism argument (why the spilled Summary is bit-identical to the
// in-memory one):
//
//  1. Means. The in-memory Summarize accumulates `overall += f` (and
//     small/large likewise) over records in completion order, with
//     f = float64(FCT). Spill folds whole chunks in that same order,
//     then Summarize folds the resident tail — the float additions
//     happen in exactly the same sequence, so the sums, and the means
//     derived from them, are the same float64s bit for bit.
//  2. P99. The nearest-rank percentile is the k-th order statistic of
//     the small-FCT multiset — a value, independent of how it is
//     located. The in-memory path quickselects the float64s; the spill
//     path radix-selects the integer FCTs MSB-first in digits of at most
//     digitBits bits. Int-to-float conversion is monotone, so the
//     float64 of the k-th smallest integer is the k-th smallest float64:
//     exactly the element a full sort would put at index k.
type spillState struct {
	chunk int      // resident-word cap
	f     *os.File // unlinked temp file of small FCTs, little-endian uint64
	// resident holds the completions not yet folded: a small flow's
	// FCT, or ^FCT for a large one.
	resident []int64
	// buf is the file's one I/O block: the words appended since the last
	// flush, and, once a selection has flushed them, its read block.
	buf []byte

	// Folded running sums, accumulated in completion order.
	flows      int
	smallCount int
	largeCount int
	overall    float64
	small      float64
	large      float64

	spilled     int64 // small FCTs on file
	maxResident int   // high-water mark of len(resident)
	counts      []int64
}

// digitBits is the selection's radix: a histogram of 2Ki counters, and
// six passes over the file for the 63 bits of a nonnegative int64.
const digitBits = 11

// SetSpill switches the collector to bounded-memory mode: at most chunk
// completions stay resident; older chunks are folded into running sums
// and their small FCTs spilled to an unlinked temp file. Must be called
// before the first Complete. Records, MergeCanonical, WriteCSV,
// Slowdowns and Buckets are unavailable in spill mode (the raw log no
// longer exists); Summarize remains bit-identical to the in-memory path.
// Call Close to release the spill file.
func (c *Collector) SetSpill(chunk int) error {
	if chunk <= 0 {
		return fmt.Errorf("stats: spill chunk must be positive, got %d", chunk)
	}
	if len(c.records) > 0 || c.sp != nil {
		return fmt.Errorf("stats: SetSpill on a non-empty collector")
	}
	f, err := os.CreateTemp("", "ppt-fct-spill-*")
	if err != nil {
		return err
	}
	// Unlink immediately: the file lives only as our descriptor and
	// vanishes even if the process dies.
	os.Remove(f.Name())
	c.sp = &spillState{
		chunk:    chunk,
		f:        f,
		resident: make([]int64, 0, chunk),
		buf:      make([]byte, 0, 1<<16),
	}
	return nil
}

// ResidentPeak reports the largest number of completions ever resident
// at once — in spill mode this is capped at the chunk size; otherwise
// it is simply the record count.
func (c *Collector) ResidentPeak() int {
	if c.sp != nil {
		return c.sp.maxResident
	}
	return len(c.records)
}

// SpilledRecords reports how many small-flow FCTs have been written to
// the spill file.
func (c *Collector) SpilledRecords() int64 {
	if c.sp == nil {
		return 0
	}
	return c.sp.spilled
}

// Close releases the spill file, if any. The collector must not be used
// afterwards.
func (c *Collector) Close() error {
	if c.sp == nil || c.sp.f == nil {
		return nil
	}
	err := c.sp.f.Close()
	c.sp.f = nil
	return err
}

// complete is Complete for a spilling collector.
func (sp *spillState) complete(size int64, fct sim.Time) {
	w := int64(fct)
	if size > SmallFlowMax {
		w = ^w
	}
	sp.resident = append(sp.resident, w)
	if len(sp.resident) > sp.maxResident {
		sp.maxResident = len(sp.resident)
	}
	if len(sp.resident) >= sp.chunk {
		sp.spillChunk()
	}
}

// spillChunk folds every resident word into the running sums, appends
// small FCTs to the file, and empties the resident log. Completion order
// is preserved: words fold head to tail, exactly as the in-memory
// Summarize would have visited the records.
func (sp *spillState) spillChunk() {
	for _, w := range sp.resident {
		if w < 0 {
			f := float64(^w)
			sp.overall += f
			sp.large += f
			sp.largeCount++
			continue
		}
		f := float64(w)
		sp.overall += f
		sp.small += f
		sp.smallCount++
		if len(sp.buf) == cap(sp.buf) {
			sp.flush()
		}
		sp.buf = binary.LittleEndian.AppendUint64(sp.buf, uint64(w))
		sp.spilled++
	}
	sp.flows += len(sp.resident)
	sp.resident = sp.resident[:0]
}

// flush writes the pending block to the file. Writes go through the
// file offset, reads through ReadAt, so a mid-run Summarize leaves the
// append position alone.
func (sp *spillState) flush() {
	if _, err := sp.f.Write(sp.buf); err != nil {
		panic("stats: spill write failed: " + err.Error())
	}
	sp.buf = sp.buf[:0]
}

// summarizeSpill is Summarize for a spilling collector.
func (c *Collector) summarizeSpill() Summary {
	sp := c.sp
	var s Summary
	s.Flows = sp.flows + len(sp.resident)
	if s.Flows == 0 {
		return s
	}
	// Fold the resident tail into copies of the running sums — same
	// addition sequence as the monolithic loop, without consuming the
	// words (Summarize must stay idempotent).
	overall, small, large := sp.overall, sp.small, sp.large
	smallCount, largeCount := sp.smallCount, sp.largeCount
	for _, w := range sp.resident {
		if w < 0 {
			f := float64(^w)
			overall += f
			large += f
			largeCount++
			continue
		}
		f := float64(w)
		overall += f
		small += f
		smallCount++
	}
	s.OverallAvg = sim.Time(overall / float64(s.Flows))
	s.SmallCount = smallCount
	s.LargeCount = largeCount
	if smallCount > 0 {
		s.SmallAvg = sim.Time(small / float64(smallCount))
		rank := int(math.Ceil(0.99*float64(smallCount))) - 1
		if rank < 0 {
			rank = 0
		}
		s.SmallP99 = sim.Time(float64(sp.selectKth(int64(rank))))
	}
	if largeCount > 0 {
		s.LargeAvg = sim.Time(large / float64(largeCount))
	}
	return s
}

// selectKth returns the k-th smallest small FCT (0-based) across the
// spill file and the resident words, by MSB-first radix counting in
// digits of at most digitBits bits.
func (sp *spillState) selectKth(k int64) int64 {
	if sp.counts == nil {
		sp.counts = make([]int64, 1<<digitBits)
	}
	if len(sp.buf) > 0 {
		sp.flush()
	}
	var prefix uint64
	for hi := uint(63); hi > 0; {
		width := min(hi, digitBits)
		shift := hi - width
		counts := sp.counts[:1<<width]
		sp.countDigits(counts, prefix, hi, shift)
		found := false
		var cum int64
		for v, n := range counts {
			if cum+n > k {
				prefix |= uint64(v) << shift
				k -= cum
				found = true
				break
			}
			cum += n
		}
		if !found {
			panic("stats: spill selection rank out of range")
		}
		hi = shift
	}
	return int64(prefix)
}

// countDigits is one selection pass: it zeroes counts, then tallies
// digit (v>>shift) mod len(counts) of every small FCT v whose bits from
// hi up equal prefix's — spilled file first, read in blocks, then the
// resident tail. The file must be flushed.
func (sp *spillState) countDigits(counts []int64, prefix uint64, hi, shift uint) {
	clear(counts)
	above := ^uint64(0) << hi
	digit := uint64(len(counts) - 1)
	block := sp.buf[:cap(sp.buf)]
	for off, end := int64(0), sp.spilled*8; off < end; {
		n := min(int64(len(block)), end-off)
		if _, err := sp.f.ReadAt(block[:n], off); err != nil {
			panic("stats: spill read failed: " + err.Error())
		}
		for b := block[:n]; len(b) >= 8; b = b[8:] {
			if v := binary.LittleEndian.Uint64(b); v&above == prefix {
				counts[(v>>shift)&digit]++
			}
		}
		off += n
	}
	for _, w := range sp.resident {
		if v := uint64(w); w >= 0 && v&above == prefix {
			counts[(v>>shift)&digit]++
		}
	}
}
