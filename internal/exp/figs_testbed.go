package exp

import (
	"fmt"

	"ppt/internal/workload"
)

// testbedSchemes are the four transports the CloudLab experiments
// compare (§6.1).
var testbedSchemes = []string{"homa", "rc3", "dctcp", "ppt"}

// loadSweep runs the 15-to-15 pattern across loads for one workload,
// or at the Load override alone. All (load × scheme × repeat) cells go
// into one pool.
func loadSweep(o Options, dist *workload.Dist, loads []float64) []Row {
	fab := testbedFabric()
	spec := runSpec{fab: fab, dist: dist, pattern: workload.AllToAll{N: fab.hosts}, flows: o.Flows, seed: o.Seed}
	p := newPool(o)
	for _, load := range loads {
		spec.load = o.loadOr(load)
		p.compare(spec, testbedSchemes, fmt.Sprintf("@%.1f", spec.load))
		if o.Load != 0 {
			break
		}
	}
	return p.run()
}

// incast runs the testbed's 14-to-1 pattern for one workload.
func incast(o Options, dist *workload.Dist) []Row {
	fab := testbedFabric()
	return compare(o, runSpec{fab: fab, dist: dist, pattern: workload.Incast{N: fab.hosts, Target: 0},
		load: o.loadOr(0.5), flows: o.Flows, seed: o.Seed}, testbedSchemes)
}

func init() {
	register(&Experiment{
		ID:       "fig8",
		Title:    "[Testbed] 15-to-15, Web Search, loads 0.3/0.5/0.8",
		DefFlows: 300,
		Run: func(o Options) *Result {
			return &Result{ID: "fig8", Title: "testbed 15-to-15 web search",
				Rows:  loadSweep(o, workload.WebSearch, []float64{0.3, 0.5, 0.8}),
				Notes: []string{"paper: PPT cuts overall avg FCT by up to 79.7%/82.3%/98.1% vs Homa-Linux/RC3/DCTCP"}}
		},
	})
	register(&Experiment{
		ID:       "fig9",
		Title:    "[Testbed] 15-to-15, Data Mining, loads 0.3/0.5/0.8",
		DefFlows: 200,
		Run: func(o Options) *Result {
			return &Result{ID: "fig9", Title: "testbed 15-to-15 data mining",
				Rows:  loadSweep(o, workload.DataMining, []float64{0.3, 0.5, 0.8}),
				Notes: []string{"paper: PPT cuts overall avg FCT by up to 28.9%/17.6%/96% vs Homa-Linux/RC3/DCTCP"}}
		},
	})
	register(&Experiment{
		ID:       "fig10",
		Title:    "[Testbed] 14-to-1 incast, Web Search, load 0.5",
		DefFlows: 300,
		Run: func(o Options) *Result {
			return &Result{ID: "fig10", Title: "testbed 14-to-1 web search",
				Rows:  incast(o, workload.WebSearch),
				Notes: []string{"paper: PPT cuts overall avg FCT by 74.8%/92.7%/95.5% vs Homa-Linux/RC3/DCTCP"}}
		},
	})
	register(&Experiment{
		ID:       "fig11",
		Title:    "[Testbed] 14-to-1 incast, Data Mining, load 0.5",
		DefFlows: 200,
		Run: func(o Options) *Result {
			return &Result{ID: "fig11", Title: "testbed 14-to-1 data mining",
				Rows:  incast(o, workload.DataMining),
				Notes: []string{"paper: PPT cuts overall avg FCT by 32%/23.4%/94% vs Homa-Linux/RC3/DCTCP"}}
		},
	})
}
