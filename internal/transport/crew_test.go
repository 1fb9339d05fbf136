package transport

import (
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ppt/internal/sim"
)

// TestCrewClaimsEachShardOnce drives the windowed driver's crew with a
// recording stub in place of runWindow, over random runnable subsets.
// Every runnable shard must run exactly once per round, with that
// round's runTo, and an idle shard never. The stub writes plain
// per-shard counters that the test reads after round returns, so under
// -race the detector checks that round orders every shard's writes
// before its return. Two shards must run at once at least once, so
// helpers do take work. A round after a pause longer than the spin
// budget must still complete with the helpers parked, and stop must not
// return while a helper is still waiting or claiming.
func TestCrewClaimsEachShardOnce(t *testing.T) {
	const rounds = 10_000
	rng := rand.New(rand.NewSource(1))
	for workers := 2; workers <= 4; workers++ {
		n := workers + rng.Intn(5)
		runTo := make([]sim.Time, n)
		ran := make([]int, n)
		got := make([]sim.Time, n)
		spin := make([]int, n)
		var active, overlap atomic.Int32
		c := newCrew(workers, runTo, func(i int, rt sim.Time) {
			if active.Add(1) > 1 {
				overlap.Store(1)
			}
			for k := 0; k < spin[i]; k++ {
				runtime.Gosched()
			}
			ran[i]++
			got[i] = rt
			active.Add(-1)
		})
		check := func(r int) {
			t.Helper()
			for i, rt := range runTo {
				want := 1
				if rt == shardIdle {
					want = 0
				}
				if ran[i] != want {
					t.Fatalf("workers %d, round %d: shard %d ran %d times, want %d", workers, r, i, ran[i], want)
				}
				if want == 1 && got[i] != rt {
					t.Fatalf("workers %d, round %d: shard %d ran to %v, want %v", workers, r, i, got[i], rt)
				}
			}
		}
		for r := 0; r < rounds; r++ {
			for i := range runTo {
				ran[i] = 0
				runTo[i] = shardIdle
				if rng.Intn(2) == 0 {
					runTo[i] = sim.Time(r)
				}
				spin[i] = 0
				if rng.Intn(8) == 0 {
					spin[i] = 1 + rng.Intn(4)
				}
			}
			c.round()
			check(r)
		}

		// Outwait the spin budget until every helper has parked.
		for deadline := time.Now().Add(10 * time.Second); ; {
			parked := 0
			for k := range c.helpers {
				if c.helpers[k].parked.Load() {
					parked++
				}
			}
			if parked == len(c.helpers) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("workers %d: %d of %d helpers parked after the spin budget", workers, parked, len(c.helpers))
			}
			time.Sleep(time.Millisecond)
		}
		for i := range runTo {
			ran[i] = 0
			runTo[i] = sim.Time(rounds)
			spin[i] = 0
		}
		c.round()
		check(rounds)

		c.stop()
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, fn := range []string{"(*crew).await", "(*crew).claim"} {
			if strings.Contains(stacks, fn) {
				t.Fatalf("workers %d: a helper is still in %s after stop returned", workers, fn)
			}
		}
		if overlap.Load() == 0 {
			t.Fatalf("workers %d: no two shards ever ran at once, so no helper claimed one", workers)
		}
	}
}
