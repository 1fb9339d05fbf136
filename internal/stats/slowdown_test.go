package stats

import (
	"bytes"
	"encoding/csv"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ppt/internal/netsim"
	"ppt/internal/sim"
)

func TestIdealFCT(t *testing.T) {
	// 100KB at 10G = 80us serialization + 80us RTT.
	got := IdealFCT(100_000, 10*netsim.Gbps, 80*sim.Microsecond)
	if got != 160*sim.Microsecond {
		t.Fatalf("ideal = %v", got)
	}
}

func TestSlowdowns(t *testing.T) {
	c := NewCollector()
	rate := 10 * netsim.Gbps
	rtt := 80 * sim.Microsecond
	// A flow finishing exactly at its ideal time: slowdown 1.
	c.Complete(1, 100_000, 0, IdealFCT(100_000, rate, rtt))
	// A flow 3x slower.
	c.Complete(2, 100_000, 0, 3*IdealFCT(100_000, rate, rtt))
	s := c.Slowdowns(rate, rtt)
	if math.Abs(s.Mean-2.0) > 1e-9 {
		t.Fatalf("mean slowdown = %v", s.Mean)
	}
	if s.Max != 3.0 || s.P99 != 3.0 {
		t.Fatalf("max/p99 = %v/%v", s.Max, s.P99)
	}
	if s.P50 != 1.0 {
		t.Fatalf("p50 = %v", s.P50)
	}
}

func TestSlowdownsEmpty(t *testing.T) {
	if s := NewCollector().Slowdowns(10*netsim.Gbps, sim.Microsecond); s.Mean != 0 {
		t.Fatalf("empty = %+v", s)
	}
}

func TestBuckets(t *testing.T) {
	c := NewCollector()
	c.Complete(1, 500, 0, 10*sim.Microsecond)        // (0,1KB]
	c.Complete(2, 1_000, 0, 20*sim.Microsecond)      // (0,1KB] boundary
	c.Complete(3, 50_000, 0, 100*sim.Microsecond)    // (10KB,100KB]
	c.Complete(4, 5_000_000, 0, 5*sim.Millisecond)   // (1MB,10MB]
	c.Complete(5, 50_000_000, 0, 50*sim.Millisecond) // (10MB,inf]
	bks := c.Buckets(DefaultBucketBounds)
	if len(bks) != len(DefaultBucketBounds)+1 {
		t.Fatalf("buckets = %d", len(bks))
	}
	if bks[0].Count != 2 {
		t.Fatalf("(0,1KB] count = %d", bks[0].Count)
	}
	if bks[0].Avg != 15*sim.Microsecond {
		t.Fatalf("(0,1KB] avg = %v", bks[0].Avg)
	}
	if bks[2].Count != 1 || bks[4].Count != 1 || bks[5].Count != 1 {
		t.Fatalf("counts = %v %v %v", bks[2].Count, bks[4].Count, bks[5].Count)
	}
	if bks[1].Count != 0 {
		t.Fatalf("(1KB,10KB] should be empty: %d", bks[1].Count)
	}
}

func TestBucketLabels(t *testing.T) {
	b := Bucket{Lo: 10_000, Hi: 100_000}
	if b.String() != "(10KB,100KB]" {
		t.Fatalf("label = %q", b.String())
	}
	last := Bucket{Lo: 10_000_000}
	if last.String() != "(10MB,inf]" {
		t.Fatalf("label = %q", last.String())
	}
}

func TestBucketTable(t *testing.T) {
	c := NewCollector()
	c.Complete(1, 500, 0, 10*sim.Microsecond)
	out := BucketTable(c.Buckets(DefaultBucketBounds))
	if !strings.Contains(out, "(0B,1KB]") || !strings.Contains(out, "10us") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestBucketsPanicsOnUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCollector().Buckets([]int64{100, 10})
}

func TestJainIndexPerfectFairness(t *testing.T) {
	c := NewCollector()
	for i := uint32(1); i <= 5; i++ {
		c.Complete(i, 1_000_000, 0, sim.Millisecond) // identical throughput
	}
	if j := JainIndex(c.Records()); math.Abs(j-1.0) > 1e-9 {
		t.Fatalf("jain = %v, want 1", j)
	}
}

func TestJainIndexUnfairness(t *testing.T) {
	c := NewCollector()
	c.Complete(1, 1_000_000, 0, sim.Millisecond)     // fast
	c.Complete(2, 1_000_000, 0, 100*sim.Millisecond) // 100x slower
	j := JainIndex(c.Records())
	if j > 0.6 {
		t.Fatalf("jain = %v for a 100x split", j)
	}
	if JainIndex(nil) != 0 {
		t.Fatal("empty jain != 0")
	}
}

// Property: Jain's index is always in (0, 1] for nonempty inputs.
func TestPropertyJainBounds(t *testing.T) {
	prop := func(fcts []uint32) bool {
		if len(fcts) == 0 {
			return true
		}
		c := NewCollector()
		for i, f := range fcts {
			c.Complete(uint32(i), 1000, 0, sim.Time(f%1_000_000+1)*sim.Nanosecond)
		}
		j := JainIndex(c.Records())
		return j > 0 && j <= 1.0000001
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	c := NewCollector()
	c.Complete(1, 50_000, 10*sim.Microsecond, 60*sim.Microsecond)
	c.Complete(2, 5_000_000, 0, 3*sim.Millisecond)
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"flow", "size_bytes", "start_ns", "end_ns", "fct_us"},
		{"1", "50000", "10000", "60000", "50.000"},
		{"2", "5000000", "0", "3000000", "3000.000"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %q, want %q", rows, want)
	}
}
