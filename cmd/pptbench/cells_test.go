package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"ppt/internal/exp"
	"ppt/internal/stats"
)

// small returns a copy of the named workload at a reduced flow count.
func small(t *testing.T, name string, flows int) *benchWorkload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.flows = flows
	return &c
}

// TestCellsMatchExperiments pins the composition: each workload's cells
// give exactly the Summaries exp.RunByID reports for the experiment they
// stand for, so the benchmark measures what `pptsim -exp` users run. The
// 2-worker cells are compared against the same (1-worker) rows.
func TestCellsMatchExperiments(t *testing.T) {
	cases := []struct {
		workload, exp string
		flows         int
		load          float64
		label         string // row label suffix
	}{
		{"ws-leafspine", "fig12", 60, 0, ""},
		{"ws-leafspine-2w", "fig12", 60, 0, ""},
		{"mc-stream", "scale1M", 5000, 0, ""},
		{"dm-testbed", "fig9", 40, 0.5, "@0.5"},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			w := small(t, tc.workload, tc.flows)
			cells, err := runRound(w, 1, w.workers, false)
			if err != nil {
				t.Fatal(err)
			}
			res, err := exp.RunByID(tc.exp, exp.Options{
				Flows: tc.flows, Load: tc.load, Schemes: []string{"ppt", "dctcp"}, Parallel: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range res.Notes {
				if strings.HasPrefix(n, "cell failed") {
					t.Fatalf("%s: %s", tc.exp, n)
				}
			}
			rows := map[string]stats.Summary{}
			for _, r := range res.Rows {
				rows[r.Label] = r.Sum
			}
			for _, c := range cells {
				want, ok := rows[c.scheme+tc.label]
				if !ok {
					t.Fatalf("%s has no %s row (rows %v)", tc.exp, c.scheme+tc.label, res.Rows)
				}
				if c.sum != want {
					t.Errorf("%s cell: Summary %+v, %s row %+v", c.scheme, c.sum, tc.exp, want)
				}
				if c.failed() != 0 {
					t.Errorf("%s cell: %d of %d flows failed", c.scheme, c.failed(), c.offered)
				}
			}
		})
	}
}

// TestTracedRun checks a traced run end to end at a reduced size: every
// per-layer metric is present, the layer shares sum to one, the traced
// rounds reproduce the plain rounds' outcomes, and the star fabric
// never reaches the sharded engine.
func TestTracedRun(t *testing.T) {
	for _, name := range []string{"ws-leafspine", "dm-testbed"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name, 8)
			res, info, err := measure(w, 3, time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || len(info.Problems) > 0 {
				t.Fatalf("run failed its checks: %+v %v", res, info.Problems)
			}
			if info.TracedRounds < minRounds || info.Rounds-info.TracedRounds < minRounds {
				t.Errorf("%d rounds, %d traced; want at least %d of each", info.Rounds, info.TracedRounds, minRounds)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if res.Metrics["trace.samples"].Value > 0 {
				sum := 0.0
				for _, l := range layers {
					sum += res.Metrics[l+".self_frac"].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("self_frac values sum to %v, want 1", sum)
				}
			}
			if name == "dm-testbed" {
				for _, m := range []string{"netsim.cross.self_frac", "transport.sharded.self_frac", "netsim.cross.pkts", "transport.sharded.rounds"} {
					if v := res.Metrics[m].Value; v != 0 {
						t.Errorf("%s = %v on the star fabric, want 0", m, v)
					}
				}
			}
		})
	}
}
