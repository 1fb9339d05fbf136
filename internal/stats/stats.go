// Package stats collects the measurements every figure in the paper
// reports: flow completion times split at the 100KB small/large boundary
// (mean and tail), link utilization sampled on a fixed period, per-class
// switch buffer occupancy, and transfer efficiency (received vs sent
// bytes).
package stats

import (
	"fmt"
	"math"
	"sort"

	"ppt/internal/netsim"
	"ppt/internal/sim"
)

// SmallFlowMax is the paper's small/large boundary: flows of (0, 100KB]
// are "small".
const SmallFlowMax = 100_000

// FCTRecord is one completed flow.
type FCTRecord struct {
	FlowID uint32
	Size   int64
	Start  sim.Time
	End    sim.Time
}

// FCT returns the flow completion time.
func (r FCTRecord) FCT() sim.Time { return r.End - r.Start }

// Collector accumulates flow completions. By default every record stays
// resident; SetSpill bounds resident memory for million-flow runs (see
// spill.go).
type Collector struct {
	records []FCTRecord // every completion; empty in spill mode

	// scratch is Summarize's small-FCT workspace, reused across calls so
	// summarizing is allocation-free once the run's flow count is known.
	scratch []float64

	// sp, when non-nil, holds the bounded-memory spill state.
	sp *spillState
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Reserve pre-sizes the collector for n upcoming completions so the
// record log (and Summarize's workspace) never reallocates mid-run.
func (c *Collector) Reserve(n int) {
	if n <= 0 {
		return
	}
	if c.sp != nil {
		// Spill mode already owns a chunk-sized buffer; growing to the
		// full flow count would defeat the memory bound.
		return
	}
	if need := len(c.records) + n; need > cap(c.records) {
		grown := make([]FCTRecord, len(c.records), need)
		copy(grown, c.records)
		c.records = grown
	}
	if n > cap(c.scratch) {
		c.scratch = make([]float64, 0, n)
	}
}

// Complete records one finished flow.
func (c *Collector) Complete(flowID uint32, size int64, start, end sim.Time) {
	if end < start {
		panic("stats: flow completed before it started")
	}
	if c.sp != nil {
		c.sp.complete(size, end-start)
		return
	}
	c.records = append(c.records, FCTRecord{flowID, size, start, end})
}

// Count reports completed flows.
func (c *Collector) Count() int {
	if c.sp != nil {
		return c.sp.flows + len(c.sp.resident)
	}
	return len(c.records)
}

// canonLess is the canonical (End, Start, FlowID) record order shared
// by MergeCanonical and the windowed fold (windowfold.go). Flow
// IDs are unique per run, so it is a strict total order: any sorting
// procedure produces the same sequence, which is what makes the float
// accumulation order — and every reported mean, bit for bit —
// independent of shard count.
func canonLess(a, b *FCTRecord) bool {
	if a.End != b.End {
		return a.End < b.End
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.FlowID < b.FlowID
}

// MergeCanonical appends every record of srcs into c and sorts the
// combined log by (End, Start, FlowID). Per-shard completion order
// depends on the partition, so the merged log is re-ordered by a total
// order (flow IDs are unique per run) to make Summarize's float
// accumulation sequence — and therefore every reported mean, bit for
// bit — independent of shard count. It is the reference WindowFold is
// tested against: the windowed run driver feeds its caller's collector
// the same canonical sequence incrementally, at barriers, through
// WindowFold. Monolithic runs keep their historical completion order.
func (c *Collector) MergeCanonical(srcs ...*Collector) {
	if c.sp != nil {
		panic("stats: MergeCanonical on a spilling collector (use WindowFold for windowed spill runs)")
	}
	for _, s := range srcs {
		if s.sp != nil {
			panic("stats: MergeCanonical from a spilling collector")
		}
	}
	n := 0
	for _, s := range srcs {
		n += len(s.records)
	}
	c.Reserve(n)
	for _, s := range srcs {
		c.records = append(c.records, s.records...)
	}
	r := c.records
	sort.Slice(r, func(i, j int) bool { return canonLess(&r[i], &r[j]) })
}

// Records returns the raw completions. Unavailable in spill mode: the
// full log no longer exists.
func (c *Collector) Records() []FCTRecord {
	if c.sp != nil {
		panic("stats: Records on a spilling collector")
	}
	return c.records
}

// Summary is the per-figure FCT breakdown.
type Summary struct {
	Flows int

	OverallAvg sim.Time // mean FCT, all flows

	SmallCount int
	SmallAvg   sim.Time // mean FCT, (0, 100KB]
	SmallP99   sim.Time // 99th percentile FCT, (0, 100KB]

	LargeCount int
	LargeAvg   sim.Time // mean FCT, (100KB, inf)

	// Truncated reports that the run hit its MaxEvents or Deadline bound
	// before every flow completed, so the numbers above cover only the
	// Unfinished-short subset and understate tail behaviour.
	Truncated  bool
	Unfinished int // flows still open when the bound tripped
}

// Summarize computes the standard breakdown. In spill mode the result
// is bit-identical to what the in-memory path would report over the
// same completion sequence (see spill.go for the argument).
func (c *Collector) Summarize() Summary {
	if c.sp != nil {
		return c.summarizeSpill()
	}
	var s Summary
	s.Flows = len(c.records)
	if s.Flows == 0 {
		return s
	}
	var overall, small, large float64
	smallFCTs := c.scratch[:0]
	for _, r := range c.records {
		f := float64(r.FCT())
		overall += f
		if r.Size <= SmallFlowMax {
			small += f
			smallFCTs = append(smallFCTs, f)
		} else {
			large += f
		}
	}
	c.scratch = smallFCTs[:0]
	s.OverallAvg = sim.Time(overall / float64(s.Flows))
	s.SmallCount = len(smallFCTs)
	s.LargeCount = s.Flows - s.SmallCount
	if s.SmallCount > 0 {
		s.SmallAvg = sim.Time(small / float64(s.SmallCount))
		// Nearest-rank P99 by in-place selection: the kth order statistic
		// is the same float64 a sort-then-index would produce, without
		// copying or fully ordering the slice.
		rank := int(math.Ceil(0.99*float64(s.SmallCount))) - 1
		if rank < 0 {
			rank = 0
		}
		s.SmallP99 = sim.Time(selectKth(smallFCTs, rank))
	}
	if s.LargeCount > 0 {
		s.LargeAvg = sim.Time(large / float64(s.LargeCount))
	}
	return s
}

func (s Summary) String() string {
	out := fmt.Sprintf("flows=%d overall=%v small(avg=%v p99=%v n=%d) large(avg=%v n=%d)",
		s.Flows, s.OverallAvg, s.SmallAvg, s.SmallP99, s.SmallCount, s.LargeAvg, s.LargeCount)
	if s.Truncated {
		out += fmt.Sprintf(" TRUNCATED(unfinished=%d)", s.Unfinished)
	}
	return out
}

// selectKth returns the k-th smallest element of xs (0-based),
// partially reordering xs in place — quickselect with median-of-three
// pivoting. Whatever the pivot choices, the value returned is exactly
// the element a full sort would put at index k, so results are
// bit-identical to the sort-based path it replaced.
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		if hi-lo < 12 {
			// Insertion-sort the stub and read off the answer.
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && xs[j] < xs[j-1]; j-- {
					xs[j], xs[j-1] = xs[j-1], xs[j]
				}
			}
			break
		}
		// Median-of-three pivot, parked at lo.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break // xs[k] == pivot, already in final position
		}
	}
	return xs[k]
}

// Percentile returns the p-quantile (0 < p <= 1) of xs by
// nearest-rank on a sorted copy. Returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// UtilSample is one utilization observation.
type UtilSample struct {
	At   sim.Time
	Util float64 // fraction of line rate over the last period
}

// UtilSampler periodically samples the utilization of a port (Fig 1/20:
// 100µs bins on the bottleneck link).
type UtilSampler struct {
	Samples []UtilSample
	stop    bool
}

// SampleUtilization arms a sampler on port every period until the
// returned stop function is called (or the scheduler drains).
func SampleUtilization(s *sim.Scheduler, port *netsim.Port, period sim.Time) *UtilSampler {
	us := &UtilSampler{}
	rate := port.Config().Rate
	bytesPerPeriod := float64(rate) / 8 * period.Seconds()
	port.SettleTx(s.Now() - 1) // match the per-tick settle for a mid-run arm
	last := port.Stats.TxBytes
	var tick func()
	tick = func() {
		if us.stop {
			return
		}
		// The port starts departures on demand and defers tx accounting;
		// observe it through the strict past before reading the counter
		// (DESIGN.md §7.6).
		port.SettleTx(s.Now() - 1)
		cur := port.Stats.TxBytes
		us.Samples = append(us.Samples, UtilSample{
			At:   s.Now(),
			Util: float64(cur-last) / bytesPerPeriod,
		})
		last = cur
		s.After(period, tick)
	}
	s.After(period, tick)
	return us
}

// Stop halts future sampling.
func (u *UtilSampler) Stop() { u.stop = true }

// Mean returns the average utilization across samples in [from, to).
func (u *UtilSampler) Mean(from, to sim.Time) float64 {
	var sum float64
	var n int
	for _, s := range u.Samples {
		if s.At >= from && s.At < to {
			sum += s.Util
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Min returns the lowest utilization across samples in [from, to).
func (u *UtilSampler) Min(from, to sim.Time) float64 {
	min := math.Inf(1)
	for _, s := range u.Samples {
		if s.At >= from && s.At < to {
			min = math.Min(min, s.Util)
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// BufferSample is one occupancy observation of a port, split by class.
type BufferSample struct {
	At        sim.Time
	HighBytes int64
	LowBytes  int64
}

// BufferSampler periodically samples a port's queue occupancy (Fig 28).
type BufferSampler struct {
	Samples []BufferSample
	stop    bool
}

// SampleBuffers arms an occupancy sampler on port every period.
func SampleBuffers(s *sim.Scheduler, port *netsim.Port, period sim.Time) *BufferSampler {
	bs := &BufferSampler{}
	var tick func()
	tick = func() {
		if bs.stop {
			return
		}
		// Start the departures owed by the strict past first, so a
		// packet already on the wire never reads as queued.
		port.SettleTx(s.Now() - 1)
		bs.Samples = append(bs.Samples, BufferSample{
			At:        s.Now(),
			HighBytes: port.QueuedHigh(),
			LowBytes:  port.QueuedLow(),
		})
		s.After(period, tick)
	}
	s.After(period, tick)
	return bs
}

// Stop halts future sampling.
func (b *BufferSampler) Stop() { b.stop = true }

// MeanOccupancy returns the average (high, low) occupancy in bytes.
func (b *BufferSampler) MeanOccupancy() (high, low float64) {
	if len(b.Samples) == 0 {
		return 0, 0
	}
	for _, s := range b.Samples {
		high += float64(s.HighBytes)
		low += float64(s.LowBytes)
	}
	n := float64(len(b.Samples))
	return high / n, low / n
}

// Efficiency summarizes transfer efficiency (Fig 29): the ratio of
// distinct payload bytes delivered to payload bytes put on the wire. It
// also carries the low loop's diagnostic counters.
type Efficiency struct {
	SentPayload     int64 // payload bytes transmitted by host NICs
	SentLowPayload  int64 // of which low-loop (LCP) bytes
	UsefulDelivered int64 // distinct application bytes completed
	UsefulLow       int64 // distinct bytes delivered by the low loop

	// Loops opened (refused opens do not count): unguarded (PPT's case
	// 1) and guarded mid-flow re-opens (case 2).
	Case1Opens, Case2Opens int64
	// Opportunistic packets paced out of an initial window and clocked
	// out by low ACKs.
	PacedPkts, ClockedPkts int64
	// Bytes the window transports' receiver took again: from the low
	// loop (its new bytes are UsefulLow), and new and again from the high
	// loop.
	DupLowBytes                int64
	NewHighBytes, DupHighBytes int64
}

// Add accumulates o into e (the windowed driver's per-shard merge).
func (e *Efficiency) Add(o Efficiency) {
	e.SentPayload += o.SentPayload
	e.SentLowPayload += o.SentLowPayload
	e.UsefulDelivered += o.UsefulDelivered
	e.UsefulLow += o.UsefulLow
	e.Case1Opens += o.Case1Opens
	e.Case2Opens += o.Case2Opens
	e.PacedPkts += o.PacedPkts
	e.ClockedPkts += o.ClockedPkts
	e.DupLowBytes += o.DupLowBytes
	e.NewHighBytes += o.NewHighBytes
	e.DupHighBytes += o.DupHighBytes
}

// Overall returns delivered/sent, in [0,1] when no accounting bugs.
func (e Efficiency) Overall() float64 {
	if e.SentPayload == 0 {
		return 0
	}
	return float64(e.UsefulDelivered) / float64(e.SentPayload)
}

// LowLoop returns the low-priority loop's efficiency.
func (e Efficiency) LowLoop() float64 {
	if e.SentLowPayload == 0 {
		return 0
	}
	return float64(e.UsefulLow) / float64(e.SentLowPayload)
}
