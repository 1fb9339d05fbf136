package exp

import (
	"fmt"

	"ppt/internal/bufaware"
	"ppt/internal/sim"
	"ppt/internal/stats"
	"ppt/internal/topo"
	"ppt/internal/transport"
	"ppt/internal/transport/ppt"
	"ppt/internal/workload"
)

// makeFlows generates a workload for a fabric (shared by the oracle's
// two passes, which must see identical flows).
func makeFlows(cfg topo.Config, dist *workload.Dist, pattern workload.Pattern, load float64, n int, seed int64) []transport.SimpleFlow {
	wf := workload.Generate(workload.GenConfig{
		Dist: dist, Pattern: pattern, Load: load,
		HostRate: cfg.HostRate, NumFlows: n, Seed: seed,
	})
	flows := make([]transport.SimpleFlow, len(wf))
	for i, f := range wf {
		flows[i] = transport.SimpleFlow{ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size, Arrive: f.Arrive}
	}
	return flows
}

// runOracle runs the two-pass hypothetical DCTCP (§2.3) and returns the
// second-pass summary. Both passes count toward the experiment's event
// total.
func runOracle(o Options, fab fabric, flows []transport.SimpleFlow, frac float64) (stats.Summary, *transport.Env) {
	rec := ppt.NewMWRecorder()
	env1 := transport.NewEnv(fab.build(fab.cfg))
	env1.RTOMin = fab.rtoMin
	transport.Run(env1, rec, flows, transport.RunConfig{})
	env2 := transport.NewEnv(fab.build(fab.cfg))
	env2.RTOMin = fab.rtoMin
	sum := transport.Run(env2, ppt.Oracle{MW: rec.MW(), FillFraction: frac}, flows, transport.RunConfig{})
	o.addEvents(env1.Sched().Executed + env2.Sched().Executed)
	return sum, env2
}

// utilizationRun drives one scheme (named in baseSchemes, or the
// two-pass oracle when oracleFrac > 0) on the Fig 1/20 dumbbell and
// samples the bottleneck downlink every 100µs. The whole cell —
// summary and utilization extras — runs through the result cache.
func utilizationRun(o Options, load float64, schemeName string, oracleFrac float64) (Row, error) {
	fab := dumbbellFabric(2, 120_000)
	label := "hypothetical"
	var sc scheme
	if oracleFrac <= 0 {
		sc = baseSchemes()[schemeName]
		label = sc.make(nil).Name()
	}
	sum, extra, err := o.cachedCell(
		utilDesc(fab, load, o.Flows, o.Seed, schemeName, oracleFrac),
		func() (stats.Summary, map[string]float64) {
			cfg := fab.cfg
			flows := makeFlows(cfg, workload.WebSearch, workload.Incast{N: 3, Target: 0}, load, o.Flows, o.Seed)
			net := fab.build(cfg)
			env := transport.NewEnv(net)
			env.RTOMin = fab.rtoMin
			us := stats.SampleUtilization(env.Sched(), net.Switches[0].Port(0), 100*sim.Microsecond)
			var sum stats.Summary
			if oracleFrac > 0 {
				// Oracle runs its own two passes on fresh fabrics; the sampler
				// above is replaced by one on the second-pass fabric.
				rec := ppt.NewMWRecorder()
				transport.Run(env, rec, flows, transport.RunConfig{})
				net2 := fab.build(cfg)
				env2 := transport.NewEnv(net2)
				env2.RTOMin = fab.rtoMin
				us = stats.SampleUtilization(env2.Sched(), net2.Switches[0].Port(0), 100*sim.Microsecond)
				sum = transport.Run(env2, ppt.Oracle{MW: rec.MW(), FillFraction: oracleFrac}, flows, transport.RunConfig{})
				o.addEvents(env2.Sched().Executed)
			} else {
				sum = transport.Run(env, sc.make(env), flows, transport.RunConfig{})
			}
			o.addEvents(env.Sched().Executed)
			us.Stop()
			// Steady state: skip the first 10% of samples.
			n := len(us.Samples)
			var from sim.Time
			if n > 0 {
				from = us.Samples[n/10].At
			}
			to := sim.MaxTime
			return sum, map[string]float64{
				"util-mean": us.Mean(from, to),
				"util-min":  us.Min(from, to),
			}
		})
	return Row{Label: label, Sum: sum, Extra: extra}, err
}

func init() {
	register(&Experiment{
		ID:       "fig1",
		Title:    "DCTCP link utilization fluctuates under Web Search at load 0.5 (ideal 0.5)",
		DefFlows: 400,
		Run: func(o Options) *Result {
			row, err := utilizationRun(o, 0.5, "dctcp", 0)
			if err != nil {
				o.errs.add(fmt.Sprintf("fig1 dctcp: %v", err))
			}
			return &Result{ID: "fig1", Title: "DCTCP link utilization (dumbbell 2->1, 40G)",
				Rows:  []Row{row},
				Notes: []string{"paper: DCTCP fluctuates between ~25% and ~50%; util-min well below 0.5 reproduces the drop"}}
		},
	})

	register(&Experiment{
		ID:       "fig2",
		Title:    "Hypothetical DCTCP (fill to MW) vs DCTCP/Homa/NDP, Web Search load 0.5",
		DefFlows: 400,
		Run: func(o Options) *Result {
			fab := simFabric(3, 2, 8)
			pattern := workload.AllToAll{N: fab.hosts}
			p := newPool(o)
			baseRows := compareCells(p, o, fab, workload.WebSearch, pattern, 0.5, []string{"ndp", "homa", "dctcp"})
			var oracleSum stats.Summary
			wantOracle := o.wants("hypothetical")
			if wantOracle {
				p.submit("hypothetical", func() error {
					var err error
					oracleSum, _, err = o.cachedCell(
						oracleDesc(fab, workload.WebSearch, pattern, 0.5, o.Flows, o.Seed, 1.0),
						func() (stats.Summary, map[string]float64) {
							flows := makeFlows(fab.cfg, workload.WebSearch, pattern, 0.5, o.Flows, o.Seed)
							sum, _ := runOracle(o, fab, flows, 1.0)
							return sum, nil
						})
					return err
				})
			}
			p.run()
			rows := baseRows()
			if wantOracle {
				rows = append(rows, Row{Label: "hypothetical", Sum: oracleSum})
			}
			return &Result{ID: "fig2", Title: "overall avg FCT, hypothetical DCTCP vs baselines",
				Rows:  rows,
				Notes: []string{"paper: hypothetical DCTCP beats Homa by ~33% and NDP by ~40% on overall avg FCT"}}
		},
	})

	register(&Experiment{
		ID:       "fig3",
		Title:    "Filling the gap to f x MW, Data Mining load 0.6 (f = 0.5..1.5)",
		DefFlows: 300,
		Run: func(o Options) *Result {
			fab := simFabric(3, 2, 8)
			pattern := workload.AllToAll{N: fab.hosts}
			// flows is shared read-only by every cell: each oracle pass
			// copies what it needs into its own fabric.
			flows := makeFlows(fab.cfg, workload.DataMining, pattern, 0.6, o.Flows, o.Seed)
			fracs := []float64{0.5, 0.75, 1.0, 1.25, 1.5}
			p := newPool(o)
			rows := make([]Row, len(fracs))
			for i, frac := range fracs {
				i, frac := i, frac
				label := fmt.Sprintf("fill-%.2fxMW", frac)
				rows[i] = Row{Label: label}
				p.submit(label, func() error {
					sum, extra, err := o.cachedCell(
						oracleDesc(fab, workload.DataMining, pattern, 0.6, o.Flows, o.Seed, frac)+"extras=switch-drops\n",
						func() (stats.Summary, map[string]float64) {
							sum, env := runOracle(o, fab, flows, frac)
							var drops int64
							for _, sp := range env.Net.SwitchPorts() {
								drops += sp.Stats.Drops
							}
							return sum, map[string]float64{"switch-drops": float64(drops)}
						})
					if err != nil {
						return err
					}
					rows[i] = Row{Label: label, Sum: sum, Extra: extra}
					return nil
				})
			}
			p.run()
			return &Result{ID: "fig3", Title: "FCT vs fill fraction of MW",
				Rows:  rows,
				Notes: []string{"paper: under-filling (0.5xMW) wastes capacity; over-filling (1.5xMW) bursts and loses packets; 1.0xMW is the sweet spot"}}
		},
	})

	register(&Experiment{
		ID:       "table1",
		Title:    "Qualitative comparison of transports (Table 1)",
		DefFlows: 1,
		Run: func(o Options) *Result {
			mk := func(name, pattern, sched, commodity, tcpip, apps string) Row {
				return Row{Label: name, Extra: nil, Sum: stats.Summary{}}
			}
			_ = mk
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
			net := fab.build(fab.cfg)
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
