package exp

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"ppt/internal/sim"
	"ppt/internal/stats"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/ppt"
	"ppt/internal/transport/rc3"
	"ppt/internal/workload"
)

// ablation compares real PPT against one disabled-component variant on
// the standard web-search sim setup (§6.3.1). Like every leaf-spine
// figure it runs on drop-tail shared buffers — the paper's ns-3 switch
// model — where the LCP's own protections (ECN, EWD) are the only thing
// standing between opportunistic floods and normal traffic.
func ablation(id, title, note string, defFlows int, variant ppt.Config) {
	register(&Experiment{
		ID:       id,
		Title:    title,
		DefFlows: defFlows,
		Run: func(o Options) *Result {
			fab := simFabric(3, 2, 8)
			spec := runSpec{fab: fab, dist: workload.WebSearch, pattern: workload.AllToAll{N: fab.hosts},
				load: o.loadOr(0.5), flows: o.Flows, seed: o.Seed, obs: lcpHealth}
			p := newPool(o)
			for _, cfg := range []ppt.Config{{}, variant} {
				spec.proto = ppt.Proto{Cfg: cfg}
				p.row(spec.proto.Name(), spec)
			}
			return &Result{ID: id, Title: title, Rows: p.run(), Notes: []string{note,
				"drop-tail shared buffers, as on every leaf-spine figure; low-eff, low-drops, low-marks and low-sentMB are the low loop's efficiency, switch drops and marks, and payload sent"}}
		},
	})
}

// lcpHealth reports the low loop's health after the run: its transfer
// efficiency, its drops and marks at the switches, and the payload it
// sent. Its tag keeps an ablation cell and a plain comparison cell over
// the same spec in different cache entries.
var lcpHealth = readAfter("lcp-ablation", func(env *transport.Env) map[string]float64 {
	var lowDrops, lowMarks int64
	for _, sp := range env.Net.SwitchPorts() {
		lowDrops += sp.Stats.DropsLow
		lowMarks += sp.Stats.MarksLow
	}
	return map[string]float64{
		"low-eff":    env.Eff.LowLoop(),
		"low-drops":  float64(lowDrops),
		"low-marks":  float64(lowMarks),
		"low-sentMB": float64(env.Eff.SentLowPayload) / 1e6,
	}
})

// fig19Runs is how many timed runs fig19 makes of each scheme.
const fig19Runs = 5

func init() {
	ablation("fig15", "Ablation: ECN for the LCP loop",
		"paper: without ECN, overall avg +18.9%, small avg/tail +59.6%/+78.4%",
		500, ppt.Config{DisableECN: true})
	ablation("fig16", "Ablation: exponential window decreasing (EWD)",
		"paper: without EWD (line-rate LCP), overall avg +26%, small avg/tail +63.5%/+85.8%",
		500, ppt.Config{DisableEWD: true})
	ablation("fig17", "Ablation: buffer-aware flow scheduling",
		"paper: without scheduling, overall avg +26%, small avg/tail +66%/+51.2%",
		500, ppt.Config{DisableScheduling: true})
	ablation("fig18", "Ablation: buffer-aware flow identification",
		"paper: without identification, small avg/tail +4.3%/+31.9% (overall slightly lower)",
		500, ppt.Config{DisableIdentification: true})

	register(&Experiment{
		ID:       "fig19",
		Title:    "Datapath processing overhead: PPT vs DCTCP (wall-clock per simulated packet)",
		DefFlows: 300,
		Run: func(o Options) *Result {
			fab := testbedFabric()
			// Deliberately serial: this experiment measures wall-clock per
			// simulated event, which sharing cores with sibling cells would
			// distort. For the same reason it bypasses the result cache —
			// wall-ns-per-event is not a pure function of the spec, so a
			// replayed number would be meaningless and -cache-verify would
			// flag it forever. One timed run per scheme read host noise: two
			// runs of one build put ppt at 290 and 500 ns/event. So each
			// scheme runs fig19Runs times in alternating order (dctcp, ppt,
			// ppt, dctcp, ...), drift on the host hits both alike, and the
			// median is the figure, with min and max as its spread.
			schemes := slices.DeleteFunc([]transport.Protocol{dctcp.Proto{}, ppt.Proto{}},
				func(s transport.Protocol) bool { return !o.wants(s.Name()) })
			rows := make([]Row, len(schemes))
			perEvent := make([][]float64, len(schemes))
			for r := 0; r < fig19Runs; r++ {
				for i := range schemes {
					k := i
					if r%2 == 1 {
						k = len(schemes) - 1 - i
					}
					start := time.Now()
					sum, _, _, events := execute(runSpec{fab: fab, proto: schemes[k], dist: workload.WebSearch,
						pattern: workload.AllToAll{N: fab.hosts}, load: o.loadOr(0.5), flows: o.Flows, seed: o.Seed})
					elapsed := time.Since(start)
					o.addEvents(events)
					perEvent[k] = append(perEvent[k], float64(elapsed.Nanoseconds())/float64(events))
					if r == 0 {
						rows[k] = Row{Label: schemes[k].Name(), Sum: sum, Extra: map[string]float64{"events": float64(events)}}
					}
				}
			}
			for k, ns := range perEvent {
				sort.Float64s(ns)
				rows[k].Extra["wall-ns-per-event"] = ns[len(ns)/2]
				rows[k].Extra["wall-ns-per-event-min"] = ns[0]
				rows[k].Extra["wall-ns-per-event-max"] = ns[len(ns)-1]
			}
			return &Result{ID: "fig19", Title: "per-event datapath cost (see also BenchmarkFig19*)",
				Rows:  rows,
				Notes: []string{"paper: PPT's kernel CPU overhead is <1% above DCTCP; here the analogous claim is a small per-event cost gap"}}
		},
	})

	register(&Experiment{
		ID:       "fig20",
		Title:    "Link utilization: PPT vs DCTCP vs hypothetical DCTCP (ideal 0.5)",
		DefFlows: 400,
		Run: func(o Options) *Result {
			p := newPool(o)
			p.row("dctcp", utilSpec(o, dctcp.Proto{}))
			p.row("ppt", utilSpec(o, ppt.Proto{}))
			p.row("hypothetical", utilSpec(o, ppt.Oracle{FillFraction: 1.0}))
			return &Result{ID: "fig20", Title: "bottleneck utilization under web search at 0.5 load",
				Rows:  p.run(),
				Notes: []string{"paper: PPT ~ hypothetical, both hold ~50%; DCTCP dips to ~25% (up to 1.8x lower)"}}
		},
	})

	register(&Experiment{
		ID:       "fig24",
		Title:    "RC3 with limited low-priority buffer (20%-80%) vs PPT",
		DefFlows: 400,
		Run: func(o Options) *Result {
			fab := simFabric(3, 2, 8)
			spec := runSpec{fab: fab, proto: rc3.Proto{}, dist: workload.WebSearch,
				pattern: workload.AllToAll{N: fab.hosts}, load: o.loadOr(0.5), flows: o.Flows, seed: o.Seed}
			p := newPool(o)
			for _, frac := range []float64{0.2, 0.4, 0.6, 0.8} {
				capped := spec
				capped.fab.cfg.LowClassCap = int64(frac * float64(fab.cfg.PerPortBuffer))
				p.row(fmt.Sprintf("rc3-low%d%%", int(frac*100)), capped)
			}
			p.compare(spec, []string{"ppt"}, "")
			return &Result{ID: "fig24", Title: "RC3 low-priority buffer caps",
				Rows:  p.run(),
				Notes: []string{"paper: PPT beats RC3 at every cap, by up to 71% overall and 73%/75% small avg/tail"}}
		},
	})

	register(&Experiment{
		ID:       "fig25",
		Title:    "PPT vs PIAS and HPCC, Web Search, load 0.5",
		DefFlows: 500,
		Run: func(o Options) *Result {
			return &Result{ID: "fig25", Title: "vs information-agnostic scheduling and INT-based control",
				Rows:  simComparison(o, simFabric(3, 2, 8), workload.WebSearch, 0.5, []string{"pias", "hpcc", "ppt"}),
				Notes: []string{"paper: PPT beats PIAS by 24.6% overall (28.6%/46.9% small avg/tail) and HPCC by 4.7% (20%/38.2%)"}}
		},
	})

	register(&Experiment{
		ID:       "fig27",
		Title:    "PPT under different TCP send buffer sizes (Fig 27)",
		DefFlows: 400,
		Run: func(o Options) *Result {
			fab := simFabric(3, 2, 8)
			spec := runSpec{fab: fab, proto: ppt.Proto{}, dist: workload.WebSearch,
				pattern: workload.AllToAll{N: fab.hosts}, load: o.loadOr(0.5), flows: o.Flows, seed: o.Seed}
			p := newPool(o)
			for _, buf := range []int64{128 << 10, 2 << 20, 4 << 20, 0 /* 2GB: unbounded */} {
				label := "sndbuf-2GB"
				if buf != 0 {
					label = fmt.Sprintf("sndbuf-%dKB", buf>>10)
				}
				spec.sendBuf = buf
				p.row(label, spec)
			}
			return &Result{ID: "fig27", Title: "send-buffer sensitivity",
				Rows:  p.run(),
				Notes: []string{"paper: 128KB still beats proactive schemes on small flows; >=2MB recovers overall/large FCT too"}}
		},
	})

	register(&Experiment{
		ID:       "fig28",
		Title:    "Buffer occupancy by class under 60%/80% ECN thresholds (Fig 28)",
		DefFlows: 300,
		Run: func(o Options) *Result {
			return &Result{ID: "fig28", Title: "per-class buffer occupancy",
				Rows:  bufferStudy(o, occupancy),
				Notes: []string{"paper: PPT's low-priority queue holds only 2.6-3.1% of occupancy; RC3's holds 17.4-30.2%"}}
		},
	})
	register(&Experiment{
		ID:       "fig29",
		Title:    "Transfer efficiency under 60%/80% ECN thresholds (Fig 29)",
		DefFlows: 300,
		Run: func(o Options) *Result {
			return &Result{ID: "fig29", Title: "transfer efficiency (useful/sent)",
				Rows:  bufferStudy(o, efficiency),
				Notes: []string{"paper: PPT ~ DCTCP; RC3 loses 14.6-18.4% overall and ~50% on the low-priority loop"}}
		},
	})
}

// bufferStudy runs the Fig 28/29 dumbbell cells under obs: 2 senders,
// 40G, 120KB buffer, the same ECN threshold for both classes at 60% and
// 80% of the buffer.
func bufferStudy(o Options, obs observer) []Row {
	spec := runSpec{dist: workload.WebSearch, pattern: workload.Incast{N: 3, Target: 0},
		load: o.loadOr(0.8), flows: o.Flows, seed: o.Seed, obs: obs}
	p := newPool(o)
	for _, frac := range []float64{0.6, 0.8} {
		k := int64(frac * 120_000)
		spec.fab = dumbbellFabric(2, k)
		spec.fab.cfg.ECNLowK = k // same threshold for both classes (per the paper)
		p.compare(spec, []string{"dctcp", "rc3", "ppt"}, fmt.Sprintf("@K=%d%%", int(frac*100)))
	}
	return p.run()
}

// occupancy samples the bottleneck's per-class queue every 20µs and
// reports the mean occupancy of each class (Fig 28).
var occupancy = observer{tag: "occupancy", arm: func(env *transport.Env) func() map[string]float64 {
	bs := stats.SampleBuffers(env.Sched(), env.Net.Switches[0].Port(0), 20*sim.Microsecond)
	return func() map[string]float64 {
		bs.Stop()
		hi, lo := bs.MeanOccupancy()
		return map[string]float64{"high-occ-KB": hi / 1000, "low-occ-KB": lo / 1000}
	}
}}

// efficiency reports the run's transfer efficiency, overall and on the
// low loop (Fig 29).
var efficiency = readAfter("efficiency", func(env *transport.Env) map[string]float64 {
	return map[string]float64{"transfer-eff": env.Eff.Overall(), "low-eff": env.Eff.LowLoop()}
})
