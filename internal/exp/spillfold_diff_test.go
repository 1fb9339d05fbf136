package exp

import (
	"testing"

	"ppt/internal/workload"
)

// TestWindowedSpillDifferential pins the windowed spill fold end to
// end: a streamed cell whose FCT collector spills must report exactly
// the Summary the in-memory windowed path reports — float means bit
// for bit — at every spill chunk size and shard count, while never
// holding more than a chunk of records resident. This is the exp-level companion of the stats-level
// TestWindowFoldBitIdentical, run through the real engine so the
// barrier-time safe bounds (not a synthetic cadence) drive the fold.
func TestWindowedSpillDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a matrix of simulation cells")
	}
	all := baseSchemes()
	flows := 2600
	if raceEnabled {
		flows = 900
	}
	for _, scheme := range []string{"ppt", "dctcp"} {
		fab := simFabric(3, 2, 8)
		spec := runSpec{
			fab:     fab,
			proto:   all[scheme],
			dist:    workload.MemcachedW1,
			pattern: workload.AllToAll{N: fab.hosts},
			load:    0.5,
			flows:   flows,
			seed:    7,
		}
		ref := spec
		ref.shards = 1
		refSum, _, _, _ := execute(ref)
		for _, chunk := range []int{1, 7, 1024, 1 << 16} {
			for _, shards := range []int{1, 2, 4} {
				alt := spec
				alt.shards = shards
				alt.spillChunk = chunk
				altSum, _, altEnv, _ := execute(alt)
				if altSum != refSum {
					t.Errorf("%s chunk=%d shards=%d: spilled summary diverged\nref: %+v\ngot: %+v",
						scheme, chunk, shards, refSum, altSum)
				}
				if peak := altEnv.Collector.ResidentPeak(); peak > chunk {
					t.Errorf("%s chunk=%d shards=%d: resident peak %d exceeds chunk",
						scheme, chunk, shards, peak)
				}
				if altEnv.ShardStats == nil || altEnv.ShardStats.Rounds == 0 {
					t.Errorf("%s chunk=%d shards=%d: spilled cell did not run the windowed engine",
						scheme, chunk, shards)
				}
			}
		}
	}
}
