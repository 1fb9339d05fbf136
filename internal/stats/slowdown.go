package stats

import (
	"fmt"
	"sort"
	"strings"

	"ppt/internal/netsim"
	"ppt/internal/sim"
)

// Slowdown analysis: FCT normalized by the flow's ideal completion time
// on an unloaded fabric (one base RTT plus serialization at the
// bottleneck rate). This is how the Homa and pFabric lines of work
// report latency, and it makes flows of different sizes comparable.

// IdealFCT returns the unloaded completion time for a flow of the given
// size.
func IdealFCT(size int64, rate netsim.Rate, baseRTT sim.Time) sim.Time {
	return baseRTT + rate.TxTime(int(size))
}

// SlowdownSummary holds normalized-FCT statistics.
type SlowdownSummary struct {
	Mean float64
	P50  float64
	P99  float64
	Max  float64
}

// Slowdowns computes the slowdown distribution of all completions. It
// needs the raw log, so a spilling collector panics.
func (c *Collector) Slowdowns(rate netsim.Rate, baseRTT sim.Time) SlowdownSummary {
	if c.sp != nil {
		panic("stats: Slowdowns on a spilling collector")
	}
	if len(c.records) == 0 {
		return SlowdownSummary{}
	}
	xs := make([]float64, 0, len(c.records))
	var sum, max float64
	for _, r := range c.records {
		ideal := IdealFCT(r.Size, rate, baseRTT)
		s := float64(r.FCT()) / float64(ideal)
		xs = append(xs, s)
		sum += s
		if s > max {
			max = s
		}
	}
	return SlowdownSummary{
		Mean: sum / float64(len(xs)),
		P50:  Percentile(xs, 0.50),
		P99:  Percentile(xs, 0.99),
		Max:  max,
	}
}

// Bucket is one flow-size class of a bucketed FCT breakdown.
type Bucket struct {
	Lo, Hi int64 // (Lo, Hi] in bytes; Hi == 0 means unbounded
	Count  int
	Avg    sim.Time
	P50    sim.Time
	P99    sim.Time
}

// DefaultBucketBounds follow the paper's figures: (0,100KB] small flows,
// plus finer classes used in the appendix-style breakdowns.
var DefaultBucketBounds = []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// Buckets splits completions into size classes with per-class FCT
// statistics. bounds must be ascending; a final unbounded class is
// appended automatically. It needs the raw log, so a spilling collector
// panics.
func (c *Collector) Buckets(bounds []int64) []Bucket {
	if c.sp != nil {
		panic("stats: Buckets on a spilling collector")
	}
	if !sort.SliceIsSorted(bounds, func(i, j int) bool { return bounds[i] < bounds[j] }) {
		panic("stats: bucket bounds must ascend")
	}
	buckets := make([]Bucket, len(bounds)+1)
	lo := int64(0)
	for i, b := range bounds {
		buckets[i] = Bucket{Lo: lo, Hi: b}
		lo = b
	}
	buckets[len(bounds)] = Bucket{Lo: lo, Hi: 0}
	fcts := make([][]float64, len(buckets))
	for _, r := range c.records {
		i := searchInts64(bounds, r.Size)
		fcts[i] = append(fcts[i], float64(r.FCT()))
	}
	for i := range buckets {
		xs := fcts[i]
		buckets[i].Count = len(xs)
		if len(xs) == 0 {
			continue
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		buckets[i].Avg = sim.Time(sum / float64(len(xs)))
		buckets[i].P50 = sim.Time(Percentile(xs, 0.50))
		buckets[i].P99 = sim.Time(Percentile(xs, 0.99))
	}
	return buckets
}

// String renders a bucket label like "(10KB,100KB]".
func (b Bucket) String() string {
	hi := "inf"
	if b.Hi > 0 {
		hi = byteLabel(b.Hi)
	}
	return fmt.Sprintf("(%s,%s]", byteLabel(b.Lo), hi)
}

func byteLabel(n int64) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dMB", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dKB", n/1_000)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// BucketTable renders the bucketed breakdown.
func BucketTable(buckets []Bucket) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %12s %12s %12s\n", "size-class", "flows", "avg", "p50", "p99")
	for _, bk := range buckets {
		if bk.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-16s %8d %12s %12s %12s\n", bk.String(), bk.Count, bk.Avg, bk.P50, bk.P99)
	}
	return b.String()
}

// JainIndex computes Jain's fairness index over the per-flow average
// throughputs of the given completions: (Σx)² / (n·Σx²), in (0, 1],
// where 1 is perfectly fair.
func JainIndex(records []FCTRecord) float64 {
	if len(records) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, r := range records {
		fct := float64(r.FCT())
		if fct <= 0 {
			continue
		}
		x := float64(r.Size) / fct // bytes per picosecond; units cancel
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	n := float64(len(records))
	return sum * sum / (n * sumSq)
}

// searchInts64 returns the index of the first bound >= v, giving the
// (Lo, Hi] bucket semantics used above.
func searchInts64(bounds []int64, v int64) int {
	return sort.Search(len(bounds), func(i int) bool { return bounds[i] >= v })
}
