package exp

import (
	"fmt"

	"ppt/internal/bufaware"
	"ppt/internal/sim"
	"ppt/internal/stats"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/ppt"
	"ppt/internal/workload"
)

// utilSpec is the Fig 1/20 cell: web search from both senders of the
// dumbbell to host 0 at load 0.5, the bottleneck downlink sampled.
func utilSpec(o Options, proto transport.Protocol) runSpec {
	return runSpec{fab: dumbbellFabric(2, 120_000), proto: proto, dist: workload.WebSearch,
		pattern: workload.Incast{N: 3, Target: 0}, load: 0.5, flows: o.Flows, seed: o.Seed,
		obs: utilization}
}

// utilization samples the bottleneck downlink every 100µs and reports
// its steady-state mean and minimum (the first 10% of samples skipped).
var utilization = observer{tag: "util", arm: func(env *transport.Env) func() map[string]float64 {
	us := stats.SampleUtilization(env.Sched(), env.Net.Switches[0].Port(0), 100*sim.Microsecond)
	return func() map[string]float64 {
		us.Stop()
		var from sim.Time
		if n := len(us.Samples); n > 0 {
			from = us.Samples[n/10].At
		}
		return map[string]float64{
			"util-mean": us.Mean(from, sim.MaxTime),
			"util-min":  us.Min(from, sim.MaxTime),
		}
	}
}}

// switchDrops counts the run's drops at every switch port.
var switchDrops = readAfter("switch-drops", func(env *transport.Env) map[string]float64 {
	var drops int64
	for _, sp := range env.Net.SwitchPorts() {
		drops += sp.Stats.Drops
	}
	return map[string]float64{"switch-drops": float64(drops)}
})

func init() {
	register(&Experiment{
		ID:       "fig1",
		Title:    "DCTCP link utilization fluctuates under Web Search at load 0.5 (ideal 0.5)",
		DefFlows: 400,
		Run: func(o Options) *Result {
			p := newPool(o)
			p.row("dctcp", utilSpec(o, dctcp.Proto{}))
			return &Result{ID: "fig1", Title: "DCTCP link utilization (dumbbell 2->1, 40G)",
				Rows:  p.run(),
				Notes: []string{"paper: DCTCP fluctuates between ~25% and ~50%; util-min well below 0.5 reproduces the drop"}}
		},
	})

	register(&Experiment{
		ID:       "fig2",
		Title:    "Hypothetical DCTCP (fill to MW) vs DCTCP/Homa/NDP, Web Search load 0.5",
		DefFlows: 400,
		Run: func(o Options) *Result {
			fab := simFabric(3, 2, 8)
			spec := runSpec{fab: fab, dist: workload.WebSearch, pattern: workload.AllToAll{N: fab.hosts},
				load: 0.5, flows: o.Flows, seed: o.Seed}
			p := newPool(o)
			p.compare(spec, []string{"ndp", "homa", "dctcp"}, "")
			spec.proto = ppt.Oracle{FillFraction: 1.0}
			p.row("hypothetical", spec)
			return &Result{ID: "fig2", Title: "overall avg FCT, hypothetical DCTCP vs baselines",
				Rows:  p.run(),
				Notes: []string{"paper: hypothetical DCTCP beats Homa by ~33% and NDP by ~40% on overall avg FCT"}}
		},
	})

	register(&Experiment{
		ID:       "fig3",
		Title:    "Filling the gap to f x MW, Data Mining load 0.6 (f = 0.5..1.5)",
		DefFlows: 300,
		Run: func(o Options) *Result {
			fab := simFabric(3, 2, 8)
			spec := runSpec{fab: fab, dist: workload.DataMining, pattern: workload.AllToAll{N: fab.hosts},
				load: 0.6, flows: o.Flows, seed: o.Seed, obs: switchDrops}
			p := newPool(o)
			for _, frac := range []float64{0.5, 0.75, 1.0, 1.25, 1.5} {
				spec.proto = ppt.Oracle{FillFraction: frac}
				p.row(fmt.Sprintf("fill-%.2fxMW", frac), spec)
			}
			return &Result{ID: "fig3", Title: "FCT vs fill fraction of MW",
				Rows:  p.run(),
				Notes: []string{"paper: under-filling (0.5xMW) wastes capacity; over-filling (1.5xMW) bursts and loses packets; 1.0xMW is the sweet spot"}}
		},
	})

	register(&Experiment{
		ID:       "table1",
		Title:    "Qualitative comparison of transports (Table 1)",
		DefFlows: 1,
		Run: func(o Options) *Result {
			rows := []Row{}
			for _, line := range []string{
				"dctcp      spare-bw=passive     sched=no   commodity=yes tcpip=yes app-ok=yes",
				"tcp-10     spare-bw=passive     sched=no   commodity=yes tcpip=yes app-ok=yes",
				"halfback   spare-bw=passive     sched=no   commodity=yes tcpip=yes app-ok=yes",
				"rc3        spare-bw=aggressive  sched=no   commodity=yes tcpip=yes app-ok=yes",
				"pias       spare-bw=passive     sched=yes  commodity=yes tcpip=yes app-ok=yes",
				"hpcc       spare-bw=graceful*   sched=no   commodity=no  tcpip=no  app-ok=yes",
				"homa       spare-bw=aggressive  sched=size commodity=yes tcpip=no  app-ok=no",
				"aeolus     spare-bw=aggressive  sched=size commodity=yes tcpip=no  app-ok=no",
				"expresspass spare-bw=passive    sched=no   commodity=yes tcpip=no  app-ok=no",
				"ndp        spare-bw=passive     sched=no   commodity=no  tcpip=no  app-ok=no",
				"ppt        spare-bw=graceful    sched=yes  commodity=yes tcpip=yes app-ok=yes",
			} {
				rows = append(rows, Row{Label: line})
			}
			return &Result{ID: "table1", Title: "Table 1 (qualitative; * = INT required)", Rows: rows}
		},
	})

	register(&Experiment{
		ID:       "table2",
		Title:    "Flow size distributions of realistic workloads (Table 2)",
		DefFlows: 1,
		Run: func(o Options) *Result {
			var rows []Row
			for _, d := range []*workload.Dist{workload.WebSearch, workload.DataMining, workload.MemcachedW1} {
				small := d.FractionBelow(stats.SmallFlowMax)
				rows = append(rows, Row{
					Label: d.Name,
					Extra: map[string]float64{
						"short(0-100KB)": small,
						"large(>100KB)":  1 - small,
						"avg-size-MB":    d.Mean() / 1e6,
					},
				})
			}
			return &Result{ID: "table2", Title: "workload shape vs Table 2 (websearch 62%/1.6MB, datamining 83%/7.41MB)",
				Rows: rows}
		},
	})

	register(&Experiment{
		ID:       "table3",
		Title:    "Testbed parameter settings (Table 3)",
		DefFlows: 1,
		Run: func(o Options) *Result {
			fab := testbedFabric()
			net := fab.build()
			return &Result{ID: "table3", Title: "testbed profile", Rows: []Row{
				{Label: "switch-buffer-MB", Extra: map[string]float64{"value": float64(fab.cfg.SharedBuffer) / (1 << 20)}},
				{Label: "ports", Extra: map[string]float64{"value": float64(len(net.Switches[0].Ports()))}},
				{Label: "base-rtt-us", Extra: map[string]float64{"value": net.BaseRTT.Micros()}},
				{Label: "rto-min-ms", Extra: map[string]float64{"value": fab.rtoMin.Millis()}},
				{Label: "hcp-ecn-KB", Extra: map[string]float64{"value": float64(fab.cfg.ECNHighK) / 1000}},
				{Label: "lcp-ecn-KB", Extra: map[string]float64{"value": float64(fab.cfg.ECNLowK) / 1000}},
				{Label: "ident-threshold-KB", Extra: map[string]float64{"value": 100}},
				{Label: "bdp-KB", Extra: map[string]float64{"value": float64(net.BDP()) / 1000}},
			}}
		},
	})

	register(&Experiment{
		ID:       "ident",
		Title:    "Buffer-aware flow identification accuracy (§4.1)",
		DefFlows: 50_000,
		Run: func(o Options) *Result {
			mem := bufaware.Experiment(workload.MemcachedETC, bufaware.Memcached, 1_000, 16_384, o.Flows, o.Seed)
			web := bufaware.Experiment(workload.YoutubeHTTP, bufaware.WebServer, 10_000, 16_384, o.Flows, o.Seed)
			return &Result{ID: "ident", Title: "first-syscall identification vs §4.1 (86.7% / 84.3%)", Rows: []Row{
				{Label: "memcached@1KB", Extra: map[string]float64{
					"recall": mem.Recall, "precision": mem.Precision, "large-flows": float64(mem.ActualLarge)}},
				{Label: "webserver@10KB", Extra: map[string]float64{
					"recall": web.Recall, "precision": web.Precision, "large-flows": float64(web.ActualLarge)}},
			}}
		},
	})
}
