package ppt

import (
	"math"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	sum, err := Run(Config{Flows: 60})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Flows != 60 {
		t.Fatalf("completed %d/60", sum.Flows)
	}
	if sum.OverallAvg <= 0 {
		t.Fatalf("avg FCT = %v", sum.OverallAvg)
	}
}

func TestRunEveryTransport(t *testing.T) {
	for _, tr := range Transports() {
		tr := tr
		t.Run(tr, func(t *testing.T) {
			t.Parallel()
			sum, err := Run(Config{Transport: tr, Flows: 40})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Flows != 40 {
				t.Fatalf("completed %d/40", sum.Flows)
			}
		})
	}
}

// TestRunEqualsExperimentCell pins the API to the CLI: ppt.Run and
// fig12 build the same leaf-spine cell, so both must run it on the same
// (windowed) driver and report the same Summary.
func TestRunEqualsExperimentCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four 600-flow cells")
	}
	for _, tr := range []string{"ppt", "dctcp"} {
		tr := tr
		t.Run(tr, func(t *testing.T) {
			t.Parallel()
			api, err := Run(Config{Transport: tr, Flows: 600, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunExperiment("fig12", Options{Flows: 600, Seed: 1, Schemes: []string{tr}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0].Label != tr {
				t.Fatalf("fig12 rows = %+v, want one %s row", res.Rows, tr)
			}
			if cli := res.Rows[0].Sum; api != cli {
				t.Fatalf("ppt.Run differs from fig12's %s row:\napi: %+v\ncli: %+v", tr, api, cli)
			}
		})
	}
}

func TestRunEveryTopology(t *testing.T) {
	for _, topo := range []string{
		TopologyTestbed, TopologySim, TopologySimFull, TopologyFast, TopologyNonOversubscribed,
	} {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			sum, err := Run(Config{Topology: topo, Flows: 30})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Flows != 30 {
				t.Fatalf("completed %d/30", sum.Flows)
			}
		})
	}
}

func TestRunEveryWorkload(t *testing.T) {
	for _, wl := range Workloads() {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			sum, err := Run(Config{Workload: wl, Flows: 40})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Flows != 40 {
				t.Fatalf("completed %d/40", sum.Flows)
			}
		})
	}
}

func TestRunIncast(t *testing.T) {
	sum, err := Run(Config{Incast: 8, Flows: 50, Load: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Flows != 50 {
		t.Fatalf("completed %d/50", sum.Flows)
	}
}

func TestSendBufReachesPPT(t *testing.T) {
	// SendBuf bounds PPT's low-loop reach (§4.1, Fig 27): a 128KB send
	// buffer must change a PPT run, and leave DCTCP, which has no low
	// loop, as it was.
	for _, tc := range []struct {
		transport string
		changes   bool
	}{{TransportPPT, true}, {TransportDCTCP, false}} {
		cfg := Config{Transport: tc.transport, Topology: TopologyTestbed, Flows: 100}
		unbounded, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SendBuf = 128 << 10
		bounded, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (bounded != unbounded) != tc.changes {
			t.Errorf("%s: SendBuf 128KB gives %v, unbounded %v; want changed=%v",
				tc.transport, bounded, unbounded, tc.changes)
		}
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	if _, err := Run(Config{Transport: "carrier-pigeon"}); err == nil {
		t.Fatal("unknown transport accepted")
	}
	if _, err := Run(Config{Topology: "torus"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := Run(Config{Workload: "bitcoin"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// badScales are the workload scales exp.RunByID rejects; the public
// runs must reject them too, with one error naming the value.
var badScales = []struct {
	cfg  Config
	want string
}{
	{Config{Flows: -5}, "-5"},
	{Config{Flows: -3}, "-3"},
	{Config{Load: -1}, "-1"},
	{Config{Load: math.NaN()}, "NaN"},
	{Config{Load: math.Inf(1)}, "+Inf"},
	{Config{Load: math.Inf(-1)}, "-Inf"},
}

func TestRunRejectsBadScale(t *testing.T) {
	for _, tc := range badScales {
		if _, err := Run(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run(Flows=%d Load=%v) error = %v, want one naming %s",
				tc.cfg.Flows, tc.cfg.Load, err, tc.want)
		}
	}
}

func TestPPTBeatsDCTCPOnSmallFlows(t *testing.T) {
	// The headline property, at smoke scale: equal workload, PPT's
	// small-flow FCTs beat plain DCTCP's.
	cfg := Config{Topology: TopologyTestbed, Flows: 200, Seed: 3}
	cfg.Transport = TransportDCTCP
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = TransportPPT
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.SmallAvg >= base.SmallAvg {
		t.Fatalf("PPT small avg %v not better than DCTCP %v", got.SmallAvg, base.SmallAvg)
	}
	if got.SmallP99 >= base.SmallP99 {
		t.Fatalf("PPT small p99 %v not better than DCTCP %v", got.SmallP99, base.SmallP99)
	}
	if float64(got.OverallAvg) > 1.1*float64(base.OverallAvg) {
		t.Fatalf("PPT overall %v much worse than DCTCP %v", got.OverallAvg, base.OverallAvg)
	}
}

func TestListExperimentsCoversEveryFigure(t *testing.T) {
	got := map[string]bool{}
	for _, e := range ListExperiments() {
		got[e.ID] = true
		if e.Title == "" {
			t.Errorf("experiment %s has no title", e.ID)
		}
	}
	want := []string{
		"fig1", "fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig20", "fig21", "fig22", "fig23", "fig24", "fig25", "fig26",
		"fig27", "fig28", "fig29", "table1", "table2", "table3", "ident",
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func TestRunExperimentRendering(t *testing.T) {
	res, err := RunExperiment("table3", Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"table3", "base-rtt-us", "hcp-ecn-KB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig99", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestIdentificationAccuracyAPI(t *testing.T) {
	recall, err := IdentificationAccuracy("memcached-etc", 1_000, 16_384, 20_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if recall < 0.8 || recall > 0.95 {
		t.Fatalf("recall = %v, want near the paper's 0.867", recall)
	}
}
