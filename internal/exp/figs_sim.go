package exp

import (
	"fmt"

	"ppt/internal/workload"
)

// simSchemes are the six transports of the large-scale comparison
// (§6.2).
var simSchemes = []string{"ndp", "aeolus", "homa", "rc3", "dctcp", "ppt"}

func simComparison(o Options, fab fabric, dist *workload.Dist, defLoad float64, schemes []string) []Row {
	return compare(o, runSpec{fab: fab, dist: dist, pattern: workload.AllToAll{N: fab.hosts},
		load: o.loadOr(defLoad), flows: o.Flows, seed: o.Seed}, schemes)
}

func init() {
	register(&Experiment{
		ID:       "fig12",
		Title:    "[Simulation] oversubscribed 40/100G leaf-spine, Web Search, load 0.5",
		DefFlows: 600,
		Run: func(o Options) *Result {
			return &Result{ID: "fig12", Title: "large-scale sim, web search",
				Rows: simComparison(o, simFabric(3, 2, 8), workload.WebSearch, 0.5, simSchemes),
				Notes: []string{
					"paper: PPT cuts overall avg FCT by 38.5/40.8/46.3/69.3/87.5% vs NDP/Aeolus/Homa/RC3/DCTCP",
					"run with -flows 3000 on the full 9x4x16 fabric (edit leaves/spines via source) for closer statistics",
				}}
		},
	})
	register(&Experiment{
		ID:       "fig13",
		Title:    "[Simulation] oversubscribed 40/100G leaf-spine, Data Mining, load 0.5",
		DefFlows: 400,
		Run: func(o Options) *Result {
			return &Result{ID: "fig13", Title: "large-scale sim, data mining",
				Rows:  simComparison(o, simFabric(3, 2, 8), workload.DataMining, 0.5, simSchemes),
				Notes: []string{"paper: PPT cuts overall avg FCT by 47.1/47.1/45.3/67.8/67.4% vs NDP/Aeolus/Homa/RC3/DCTCP"}}
		},
	})
	register(&Experiment{
		ID:       "fig14",
		Title:    "[Simulation] PPT's design on a delay-based (Swift-like) transport",
		DefFlows: 500,
		Run: func(o Options) *Result {
			return &Result{ID: "fig14", Title: "delay-based transport with and without PPT's dual loop",
				Rows:  simComparison(o, simFabric(3, 2, 8), workload.WebSearch, 0.5, []string{"swift", "swift+ppt"}),
				Notes: []string{"paper: +PPT cuts overall avg FCT 16.7%, small avg/tail 56.5%/72.1%, large avg 11%"}}
		},
	})
	register(&Experiment{
		ID:       "fig21",
		Title:    "[Simulation] Facebook Memcached W1 (all flows <=100KB), load 0.5",
		DefFlows: 2000,
		Run: func(o Options) *Result {
			return &Result{ID: "fig21", Title: "memcached workload",
				Rows:  simComparison(o, simFabric(3, 2, 8), workload.MemcachedW1, 0.5, simSchemes),
				Notes: []string{"paper: PPT cuts small avg/tail FCT by >=25%/55.6% vs every baseline"}}
		},
	})
	register(&Experiment{
		ID:       "fig22",
		Title:    "[Simulation] 100/400G topology, Web Search, load 0.5",
		DefFlows: 600,
		Run: func(o Options) *Result {
			return &Result{ID: "fig22", Title: "100/400G fabric",
				Rows:  simComparison(o, fastFabric(3, 2, 8), workload.WebSearch, 0.5, simSchemes),
				Notes: []string{"paper: PPT cuts overall avg FCT by 43.5/56/42.8/59.1/84.2% vs NDP/Aeolus/Homa/RC3/DCTCP; small-flow tail may exceed Homa/Aeolus at this BDP"}}
		},
	})
	register(&Experiment{
		ID:       "fig23",
		Title:    "[Simulation] N-to-1 incast sweep (RC3 omitted: cannot sustain heavy incast)",
		DefFlows: 200,
		Run: func(o Options) *Result {
			fab := simFabric(3, 2, 8)
			spec := runSpec{fab: fab, dist: workload.WebSearch, load: o.loadOr(0.6), flows: o.Flows, seed: o.Seed}
			p := newPool(o)
			for _, n := range []int{4, 8, 16, fab.hosts - 1} {
				spec.pattern = workload.Incast{N: fab.hosts, Target: 0, Senders: n}
				p.compare(spec, []string{"ndp", "aeolus", "homa", "dctcp", "ppt"}, fmt.Sprintf("-N%d", n))
			}
			return &Result{ID: "fig23", Title: "incast ratio sweep",
				Rows: p.run(),
				Notes: []string{
					"paper: under heavy incast PPT ~ DCTCP ~ NDP, all better than Homa/Aeolus",
					"sender counts scale with the reduced default fabric; grow -flows and the fabric for the paper's 32..256",
				}}
		},
	})
	register(&Experiment{
		ID:       "fig26",
		Title:    "[Simulation] non-oversubscribed 10/40G topology, Web Search, load 0.5",
		DefFlows: 600,
		Run: func(o Options) *Result {
			return &Result{ID: "fig26", Title: "non-oversubscribed fabric",
				Rows:  simComparison(o, nonOverFabric(3, 2, 8), workload.WebSearch, 0.5, simSchemes),
				Notes: []string{"paper: PPT still best on overall and large-flow avg; small-flow tail can trail the proactive schemes by up to 37.5%"}}
		},
	})
}
