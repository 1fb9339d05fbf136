// Package ppt's bench harness: one benchmark per table and figure of the
// paper's evaluation. Each benchmark runs a scaled-down version of the
// corresponding registered experiment and reports the headline metric(s)
// via b.ReportMetric, so `go test -bench=. -benchmem` regenerates the
// whole evaluation at smoke scale. For paper-scale runs use
// `go run ./cmd/pptsim -exp <id> -flows <n>`.
package ppt

import (
	"fmt"
	"testing"

	"ppt/internal/exp"
)

// benchFlows is the per-iteration workload size: enough to exercise
// steady-state behaviour, small enough that the full suite finishes in
// minutes.
const benchFlows = 120

// runExp executes one registered experiment per iteration and reports
// each row's overall average FCT (µs) as a benchmark metric, plus the
// engine throughput in millions of scheduler events per wall-clock
// second (summed across all simulation cells).
func runExp(b *testing.B, id string, flows int) {
	b.Helper()
	b.ReportAllocs()
	var last *exp.Result
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := exp.RunByID(id, exp.Options{Flows: flows, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last = res
		events += res.Events
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs/1e6, "Mevents/s")
	}
	for _, row := range last.Rows {
		if row.Sum.Flows > 0 {
			b.ReportMetric(row.Sum.OverallAvg.Micros(), row.Label+"-avg-us")
		}
		for k, v := range row.Extra {
			b.ReportMetric(v, row.Label+"-"+k)
		}
	}
}

func BenchmarkFig01Utilization(b *testing.B)     { runExp(b, "fig1", benchFlows) }
func BenchmarkFig02Hypothetical(b *testing.B)    { runExp(b, "fig2", benchFlows) }
func BenchmarkFig03FillFraction(b *testing.B)    { runExp(b, "fig3", 80) }
func BenchmarkFig08Testbed15to15WS(b *testing.B) { runExp(b, "fig8", 80) }
func BenchmarkFig09Testbed15to15DM(b *testing.B) { runExp(b, "fig9", 60) }
func BenchmarkFig10Testbed14to1WS(b *testing.B)  { runExp(b, "fig10", benchFlows) }
func BenchmarkFig11Testbed14to1DM(b *testing.B)  { runExp(b, "fig11", 60) }
func BenchmarkFig12SimWebSearch(b *testing.B)    { runExp(b, "fig12", benchFlows) }
func BenchmarkFig13SimDataMining(b *testing.B)   { runExp(b, "fig13", 80) }
func BenchmarkFig14DelayBased(b *testing.B)      { runExp(b, "fig14", benchFlows) }
func BenchmarkFig15AblationECN(b *testing.B)     { runExp(b, "fig15", benchFlows) }
func BenchmarkFig16AblationEWD(b *testing.B)     { runExp(b, "fig16", benchFlows) }
func BenchmarkFig17AblationSched(b *testing.B)   { runExp(b, "fig17", benchFlows) }
func BenchmarkFig18AblationIdent(b *testing.B)   { runExp(b, "fig18", benchFlows) }
func BenchmarkFig20Utilization(b *testing.B)     { runExp(b, "fig20", benchFlows) }
func BenchmarkFig21Memcached(b *testing.B)       { runExp(b, "fig21", 400) }
func BenchmarkFig22Fast100400G(b *testing.B)     { runExp(b, "fig22", benchFlows) }
func BenchmarkFig23IncastSweep(b *testing.B)     { runExp(b, "fig23", 60) }
func BenchmarkFig24RC3BufferCaps(b *testing.B)   { runExp(b, "fig24", 80) }
func BenchmarkFig25PIASHPCC(b *testing.B)        { runExp(b, "fig25", benchFlows) }
func BenchmarkFig26NonOversub(b *testing.B)      { runExp(b, "fig26", benchFlows) }
func BenchmarkFig27SendBuffer(b *testing.B)      { runExp(b, "fig27", 80) }
func BenchmarkFig28BufferOccupancy(b *testing.B) { runExp(b, "fig28", benchFlows) }
func BenchmarkFig29TransferEff(b *testing.B)     { runExp(b, "fig29", benchFlows) }
func BenchmarkTable2Workloads(b *testing.B)      { runExp(b, "table2", 1) }
func BenchmarkIdentAccuracy(b *testing.B)        { runExp(b, "ident", 20_000) }

// BenchmarkFig19Datapath compares PPT's whole-run cost with plain
// DCTCP's on the testbed fabric — the analogue of the paper's kernel
// CPU overhead measurement (Fig 19). It reports wall-clock ns and
// allocations per run of benchFlows flows (a new seed each iteration),
// and flows-per-run to show every run completed; `pptsim -exp fig19`
// gives the per-event figure.
func BenchmarkFig19Datapath(b *testing.B) {
	for _, tr := range []string{TransportDCTCP, TransportPPT} {
		b.Run(tr, func(b *testing.B) {
			b.ReportAllocs()
			var flows float64
			for i := 0; i < b.N; i++ {
				sum, err := Run(Config{
					Transport: tr,
					Topology:  TopologyTestbed,
					Workload:  "websearch",
					Load:      0.5,
					Flows:     benchFlows,
					Seed:      int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if sum.Flows != benchFlows {
					b.Fatalf("incomplete run: %d flows", sum.Flows)
				}
				flows += float64(sum.Flows)
			}
			b.ReportMetric(flows/float64(b.N), "flows-per-run")
		})
	}
}

// BenchmarkTransports gives per-transport wall-clock cost on an
// identical workload — the simulator's own performance envelope.
func BenchmarkTransports(b *testing.B) {
	for _, tr := range Transports() {
		b.Run(tr, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sum, err := Run(Config{
					Transport: tr,
					Topology:  TopologySim,
					Workload:  "websearch",
					Load:      0.5,
					Flows:     60,
					Seed:      int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if sum.Flows == 0 {
					b.Fatal("no flows completed")
				}
			}
		})
	}
}

// Example documents the one-call experiment API.
func Example() {
	res, err := RunExperiment("table2", Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.ID)
	// Output: table2
}
