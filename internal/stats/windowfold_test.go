package stats

import (
	"math/rand"
	"slices"
	"testing"

	"ppt/internal/sim"
)

// feedWindowed models the windowed run driver: completions with
// globally nondecreasing End times land in per-shard logs (so each log
// is nondecreasing in End, as execution order guarantees), and every
// ~window records the fold is granted a safe bound that trails the
// newest completion — exactly the shape of barrier-time folding. Each
// record is mirrored into ref so the caller can build the canonical
// in-memory reference.
func feedWindowed(t *testing.T, n, shardCount, window int, seed int64,
	fold *WindowFold, shards []*Collector, ref []*Collector) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	end := sim.Time(1)
	for i := 0; i < n; i++ {
		if rng.Intn(4) != 0 {
			// End ties — within and across shards — are the canonical
			// sort's hard case; leave end unchanged 1 in 4 times.
			end += sim.Time(rng.Int63n(30_000))
		}
		fct := sim.Time(rng.Int63n(int64(end))) + 1
		if fct > end {
			fct = end
		}
		start := end - fct
		size := int64(rng.Int63n(80_000) + 1)
		if rng.Intn(10) < 3 {
			size = SmallFlowMax + rng.Int63n(10_000_000) + 1
		}
		s := rng.Intn(shardCount)
		shards[s].Complete(uint32(i+1), size, start, end)
		ref[s].Complete(uint32(i+1), size, start, end)
		if i%window == window-1 {
			// The granted bound trails the newest completion, so some
			// records always straddle the fold.
			safe := end - sim.Time(rng.Int63n(20_000))
			fold.Fold(safe, shards)
		}
	}
}

// TestWindowFoldBitIdentical is the differential the windowed fold
// hangs on: folding per-shard completion logs into a master at window
// boundaries must produce the same Summary — float means bit for bit —
// as MergeCanonical into an in-memory master, whatever the chunk size
// (0: an in-memory master, whose record log must also match
// MergeCanonical's in order), shard count, or fold cadence.
func TestWindowFoldBitIdentical(t *testing.T) {
	n := 60_000
	if testing.Short() {
		n = 12_000
	}
	for _, chunk := range []int{0, 1, 7, 1024, 65_536} {
		for _, shardCount := range []int{1, 2, 4} {
			for _, window := range []int{1, 64, 4096} {
				master := NewCollector()
				if chunk > 0 {
					if err := master.SetSpill(chunk); err != nil {
						t.Fatal(err)
					}
				}
				fold := NewWindowFold(master)
				shards := make([]*Collector, shardCount)
				ref := make([]*Collector, shardCount)
				for i := range shards {
					shards[i] = NewCollector()
					ref[i] = NewCollector()
				}
				feedWindowed(t, n, shardCount, window, 17, fold, shards, ref)
				fold.FoldAll(shards)
				mem := NewCollector()
				mem.MergeCanonical(ref...)
				got, want := master.Summarize(), mem.Summarize()
				if got != want {
					t.Fatalf("chunk=%d shards=%d window=%d: folded %+v != canonical %+v",
						chunk, shardCount, window, got, want)
				}
				if chunk == 0 {
					if got, want := master.Records(), mem.Records(); !slices.Equal(got, want) {
						t.Fatalf("shards=%d window=%d: folded records differ from MergeCanonical's",
							shardCount, window)
					}
				} else if peak := master.ResidentPeak(); peak > chunk {
					t.Fatalf("chunk=%d shards=%d window=%d: resident peak %d exceeds chunk",
						chunk, shardCount, window, peak)
				}
				for i, c := range shards {
					if len(c.records) != 0 {
						t.Fatalf("FoldAll left %d records in shard %d", len(c.records), i)
					}
				}
				if err := master.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestWindowFoldResidentBoundMillion pins the acceptance bound at
// scale: a million records folded through window batches never push the
// master's resident log past the spill chunk, including batches larger
// than the chunk itself (the fold pre-spills rather than letting the
// feed overshoot).
func TestWindowFoldResidentBoundMillion(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 150_000
	}
	const chunk = 1 << 16
	master := NewCollector()
	if err := master.SetSpill(chunk); err != nil {
		t.Fatal(err)
	}
	fold := NewWindowFold(master)
	shards := []*Collector{NewCollector(), NewCollector(), NewCollector(), NewCollector()}
	ref := []*Collector{NewCollector(), NewCollector(), NewCollector(), NewCollector()}
	// Window of 100k records per fold: single batches exceed the chunk.
	feedWindowed(t, n, len(shards), 100_000, 23, fold, shards, ref)
	fold.FoldAll(shards)
	if peak := master.ResidentPeak(); peak > chunk {
		t.Fatalf("resident peak %d exceeds chunk %d over %d records", peak, chunk, n)
	}
	if master.Count() != n {
		t.Fatalf("folded %d records, want %d", master.Count(), n)
	}
	if master.SpilledRecords() == 0 {
		t.Fatal("spill never engaged at 1M records")
	}
	mem := NewCollector()
	mem.MergeCanonical(ref...)
	if got, want := master.Summarize(), mem.Summarize(); got != want {
		t.Fatalf("folded summary %+v != canonical %+v", got, want)
	}
	if err := master.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowFoldGuards pins the constructor and feed preconditions.
func TestWindowFoldGuards(t *testing.T) {
	sp := NewCollector()
	if err := sp.SetSpill(4); err != nil {
		t.Fatal(err)
	}
	sp.Complete(1, 10, 0, 5)
	if f := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		NewWindowFold(sp)
		return
	}(); !f {
		t.Fatal("NewWindowFold accepted a non-empty master")
	}
	sp.Close()

	master := NewCollector()
	if err := master.SetSpill(4); err != nil {
		t.Fatal(err)
	}
	fold := NewWindowFold(master)
	bad := NewCollector()
	if err := bad.SetSpill(4); err != nil {
		t.Fatal(err)
	}
	if f := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		fold.FoldAll([]*Collector{bad})
		return
	}(); !f {
		t.Fatal("fold accepted a spilling shard collector")
	}
	bad.Close()
	master.Close()
}
