package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ppt/internal/topo"
)

// Every cell the package tests run — the golden matrix and the
// differentials among them — ends with the run-end conservation audit
// of its fabric.
func init() { auditNet = (*topo.Network).Audit }

// Regenerate with: go test ./internal/exp -run TestGolden -update-golden
//
// Do NOT regenerate casually: these files pin the exact simulated
// outcomes (tables and CSV) of a representative experiment slice. Any
// engine or datapath optimization must keep them byte-identical; only a
// deliberate, reviewed behaviour change may refresh them. (The windowed
// sharded engine landed without a refresh: its deferred cross-shard
// teardown is outcome-invisible at these workloads because the
// lookahead window is far below RTO_min.)
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden experiment outputs")

// goldenCases covers every transport and every special port behaviour:
// fig8 (testbed star, shared buffer, dynamic thresholds; homa/rc3/dctcp/
// ppt with repeats), fig12 (leaf-spine ECMP; ndp trimming + aeolus
// selective drop), fig14 (delay-based swift pair), extb (HPCC INT
// telemetry pair), reactive (tcp10/halfback/pias + hpcc INT), proactive
// (expresspass + line-rate bursts).
var goldenCases = []struct {
	id   string
	opts Options
}{
	{"fig8", Options{Flows: 20, Seed: 3, Repeats: 2}},
	{"fig12", Options{Flows: 24, Seed: 1}},
	{"fig14", Options{Flows: 24, Seed: 2}},
	{"extb", Options{Flows: 20, Seed: 1}},
	{"reactive", Options{Flows: 20, Seed: 5}},
	{"proactive", Options{Flows: 20, Seed: 5}},
}

// TestGoldenOutputs is the engine-equivalence guarantee: optimizations
// to the scheduler, packet pooling, or queueing must not change a single
// simulated outcome. It renders each case's table and CSV across the
// full engine matrix — serially and on the 4-wide worker pool, at shard
// hints 1, 2 and 4 — and requires every run to match the checked-in
// golden output byte for byte. The matrix is also the proof that the
// conservative windowed engine's worker count is invisible to simulated
// outcomes.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments")
	}
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel()
			render := func(parallel, shards int) string {
				o := tc.opts
				o.Parallel = parallel
				o.Shards = shards
				res, err := RunByID(tc.id, o)
				if err != nil {
					t.Fatal(err)
				}
				return res.Render() + "\n--- csv ---\n" + res.CSV()
			}
			serial := render(1, 1)
			for _, shards := range []int{1, 2, 4} {
				for _, parallel := range []int{1, 4} {
					if shards == 1 && parallel == 1 {
						continue // the base render above
					}
					name := map[int]string{1: "serial", 4: "parallel"}[parallel]
					if got := render(parallel, shards); got != serial {
						t.Fatalf("%s: %s shards=%d output differs from serial shards=1:\n--- base ---\n%s\n--- %s shards=%d ---\n%s",
							tc.id, name, shards, serial, name, shards, got)
					}
				}
			}
			path := filepath.Join("testdata", "golden_"+tc.id+".txt")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(serial), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (generate with -update-golden): %v", err)
			}
			if serial != string(want) {
				t.Errorf("%s: output differs from golden %s.\nThe engine changed a simulated outcome.\n--- got ---\n%s\n--- want ---\n%s",
					tc.id, path, serial, string(want))
			}
		})
	}
}
