package stats

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ppt/internal/netsim"
	"ppt/internal/sim"
)

func TestSummarizeSplitsAtBoundary(t *testing.T) {
	c := NewCollector()
	c.Complete(1, 50_000, 0, 10*sim.Microsecond)     // small
	c.Complete(2, 100_000, 0, 20*sim.Microsecond)    // small (boundary inclusive)
	c.Complete(3, 100_001, 0, 100*sim.Microsecond)   // large
	c.Complete(4, 5_000_000, 0, 200*sim.Microsecond) // large
	s := c.Summarize()
	if s.Flows != 4 || s.SmallCount != 2 || s.LargeCount != 2 {
		t.Fatalf("counts = %+v", s)
	}
	if s.SmallAvg != 15*sim.Microsecond {
		t.Fatalf("small avg = %v", s.SmallAvg)
	}
	if s.LargeAvg != 150*sim.Microsecond {
		t.Fatalf("large avg = %v", s.LargeAvg)
	}
	if s.OverallAvg != 82500*sim.Nanosecond {
		t.Fatalf("overall = %v", s.OverallAvg)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := NewCollector().Summarize()
	if s.Flows != 0 || s.OverallAvg != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestCompletePanicsOnNegativeFCT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCollector().Complete(1, 10, 5*sim.Microsecond, 1*sim.Microsecond)
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Percentile(xs, 0.5); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(xs, 1.0); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 0.01); got != 1 {
		t.Fatalf("p1 = %v", got)
	}
	if got := Percentile(nil, 0.99); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	// Input must not be mutated.
	if !sort.Float64sAreSorted([]float64{1, 2, 3, 4, 5}) || xs[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

func TestPercentileP99(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := Percentile(xs, 0.99); got != 99 {
		t.Fatalf("p99 of 1..100 = %v", got)
	}
}

// Property: percentile is monotonic in p and bounded by min/max.
func TestPropertyPercentileMonotonic(t *testing.T) {
	prop := func(vals []float64, a, b float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa == 0 {
			pa = 0.01
		}
		if pb == 0 {
			pb = 0.01
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		lo, hi := Percentile(vals, pa), Percentile(vals, pb)
		mn, mx := vals[0], vals[0]
		for _, v := range vals {
			mn = math.Min(mn, v)
			mx = math.Max(mx, v)
		}
		return lo <= hi && lo >= mn && hi <= mx
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// trafficSink generates constant-rate traffic through a port so the
// utilization sampler has something to observe.
func TestUtilSampler(t *testing.T) {
	s := sim.NewScheduler()
	dst := dropSink{}
	port := netsim.NewPort("p", s, netsim.PortConfig{Rate: 10 * netsim.Gbps}, dst, nil)
	// Saturate the port for 1ms: 10G = 1.25e9 B/s -> 1.25MB in 1ms.
	var feed func()
	feed = func() {
		if s.Now() >= sim.Millisecond {
			return
		}
		if port.Queued() < 20_000 {
			for i := 0; i < 10; i++ {
				port.Enqueue(netsim.DataPacket(1, 0, 1, 0, netsim.MSS, 0))
			}
		}
		s.After(5*sim.Microsecond, feed)
	}
	feed()
	us := SampleUtilization(s, port, 100*sim.Microsecond)
	s.RunUntil(sim.Millisecond)
	us.Stop()
	if len(us.Samples) < 9 {
		t.Fatalf("samples = %d", len(us.Samples))
	}
	if m := us.Mean(100*sim.Microsecond, sim.Millisecond); m < 0.95 || m > 1.05 {
		t.Fatalf("mean util = %v, want ~1.0", m)
	}
}

func TestUtilSamplerIdleIsZero(t *testing.T) {
	s := sim.NewScheduler()
	port := netsim.NewPort("p", s, netsim.PortConfig{Rate: 10 * netsim.Gbps}, dropSink{}, nil)
	us := SampleUtilization(s, port, 100*sim.Microsecond)
	s.RunUntil(sim.Millisecond)
	us.Stop()
	if m := us.Mean(0, sim.Millisecond); m != 0 {
		t.Fatalf("idle util = %v", m)
	}
	if mn := us.Min(0, sim.Millisecond); mn != 0 {
		t.Fatalf("idle min = %v", mn)
	}
}

type dropSink struct{}

func (dropSink) Name() string           { return "drop" }
func (dropSink) Receive(*netsim.Packet) {}

func TestBufferSampler(t *testing.T) {
	s := sim.NewScheduler()
	port := netsim.NewPort("p", s, netsim.PortConfig{Rate: 10 * netsim.Gbps}, dropSink{}, nil)
	// Queue a burst: 10 high, 10 low.
	for i := 0; i < 10; i++ {
		port.Enqueue(netsim.DataPacket(1, 0, 1, 0, netsim.MSS, 0))
		port.Enqueue(netsim.DataPacket(2, 0, 1, 0, netsim.MSS, 6))
	}
	bs := SampleBuffers(s, port, 1*sim.Microsecond)
	s.RunUntil(3 * sim.Microsecond)
	bs.Stop()
	s.Run()
	if len(bs.Samples) == 0 {
		t.Fatal("no samples")
	}
	first := bs.Samples[0]
	if first.HighBytes == 0 || first.LowBytes == 0 {
		t.Fatalf("first sample = %+v", first)
	}
	// High class drains first under strict priority.
	hi, lo := bs.MeanOccupancy()
	if hi >= lo {
		t.Fatalf("high mean %v should drain faster than low mean %v", hi, lo)
	}
}

// A long wire decides owed departures late (as late as the in-flight
// packet's delivery), so a sample taken after a departure's instant but
// before anything observed the port must still see that packet gone.
func TestBufferSamplerSkipsOwedDepartures(t *testing.T) {
	s := sim.NewScheduler()
	port := netsim.NewPort("p", s, netsim.PortConfig{Rate: 10 * netsim.Gbps, Delay: 20 * sim.Microsecond}, dropSink{}, nil)
	for i := 0; i < 3; i++ {
		port.Enqueue(netsim.DataPacket(1, 0, 1, 0, netsim.MSS, 0))
	}
	wire := int64(netsim.MSS + netsim.HeaderBytes)
	tx := (10 * netsim.Gbps).TxTime(int(wire))
	// One sample per serialization: at tx+1 the second packet has been on
	// the wire for a picosecond, at 2tx+1 the third.
	bs := SampleBuffers(s, port, tx+1)
	s.RunUntil(2*tx + 2)
	bs.Stop()
	want := []int64{wire, 0}
	if len(bs.Samples) != len(want) {
		t.Fatalf("samples = %+v, want %d", bs.Samples, len(want))
	}
	for i, w := range want {
		if got := bs.Samples[i].HighBytes; got != w {
			t.Fatalf("sample %d at %v: %d bytes queued, want %d (an owed departure reported as queued)", i, bs.Samples[i].At, got, w)
		}
	}
}

func TestEfficiency(t *testing.T) {
	e := Efficiency{SentPayload: 1000, SentLowPayload: 400, UsefulDelivered: 900, UsefulLow: 300}
	if got := e.Overall(); got != 0.9 {
		t.Fatalf("overall = %v", got)
	}
	if got := e.LowLoop(); got != 0.75 {
		t.Fatalf("low = %v", got)
	}
	var zero Efficiency
	if zero.Overall() != 0 || zero.LowLoop() != 0 {
		t.Fatal("zero division not guarded")
	}
}

// TestEfficiencyAddSumsEveryField: the windowed driver merges per-shard
// accounting with Add, so a field Add skips reads 0 on every leaf-spine
// run.
func TestEfficiencyAddSumsEveryField(t *testing.T) {
	var e Efficiency
	v := reflect.ValueOf(&e).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	sum := e
	sum.Add(e)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if got := sv.Field(i).Int(); got != 2*int64(i+1) {
			t.Errorf("%s: %d after adding %d to itself", v.Type().Field(i).Name, got, i+1)
		}
	}
}
