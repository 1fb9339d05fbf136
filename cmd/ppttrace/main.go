// Command ppttrace runs one transport over one workload and dumps the
// detailed measurements: per-size-class FCT breakdown, slowdowns,
// fairness, efficiency, and (optionally) the raw per-flow CSV.
//
// Usage:
//
//	ppttrace -transport ppt -workload websearch -load 0.5 -flows 500
//	ppttrace -transport dctcp -topology testbed -out flows.csv
//	ppttrace -transport homa -incast 16 -load 0.8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ppt"
	"ppt/internal/stats"
)

func main() {
	var (
		tr    = flag.String("transport", "ppt", "transport: "+strings.Join(ppt.Transports(), ", "))
		topo  = flag.String("topology", "sim", "topology: testbed, sim, sim-full, fast, non-oversubscribed")
		wl    = flag.String("workload", "websearch", "workload: "+strings.Join(ppt.Workloads(), ", "))
		load  = flag.Float64("load", 0.5, "network load")
		flows = flag.Int("flows", 500, "number of flows")
		seed  = flag.Int64("seed", 1, "workload seed")
		inc   = flag.Int("incast", 0, "N-to-1 pattern with this many senders (0 = all-to-all)")
		out   = flag.String("out", "", "write raw per-flow CSV to this file")
		lcpDb = flag.Bool("lcpdebug", false, "print the dual-loop diagnostic counters (window transports) after the run")
	)
	flag.Parse()

	d, err := ppt.RunDetailed(ppt.Config{
		Transport: *tr, Topology: *topo, Workload: *wl,
		Load: *load, Flows: *flows, Seed: *seed, Incast: *inc,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%s on %s, %s at load %.2f, %d flows\n\n", *tr, *topo, *wl, *load, *flows)
	s := d.Summary
	if s.Truncated {
		fmt.Fprintf(os.Stderr, "warning: run hit its event/deadline bound with %d flows unfinished; stats are biased toward fast flows\n",
			s.Unfinished)
	}
	fmt.Printf("overall avg FCT   %v\n", s.OverallAvg)
	fmt.Printf("small  (0,100KB]  avg %v  p99 %v  (%d flows)\n", s.SmallAvg, s.SmallP99, s.SmallCount)
	if s.LargeCount > 0 {
		fmt.Printf("large  (>100KB)   avg %v  (%d flows)\n", s.LargeAvg, s.LargeCount)
	}
	fmt.Printf("slowdown          mean %.2f  p50 %.2f  p99 %.2f  max %.2f\n",
		d.Slowdowns.Mean, d.Slowdowns.P50, d.Slowdowns.P99, d.Slowdowns.Max)
	fmt.Printf("jain fairness     %.3f\n", d.Jain)
	fmt.Printf("transfer eff.     %.3f\n", d.TransferEfficiency)
	if d.LowLoopShare > 0 {
		fmt.Printf("low-loop share    %.1f%% of delivered bytes\n", d.LowLoopShare*100)
	}
	fmt.Println()
	fmt.Print(stats.BucketTable(d.Buckets))
	if *lcpDb {
		c := d.Eff
		fmt.Println()
		fmt.Printf("lcp loops opened  case1 %d  case2 %d\n", c.Case1Opens, c.Case2Opens)
		fmt.Printf("lcp packets       paced %d  ack-clocked %d\n", c.PacedPkts, c.ClockedPkts)
		fmt.Printf("low-loop bytes    new %d  dup %d\n", c.UsefulLow, c.DupLowBytes)
		fmt.Printf("high-loop bytes   new %d  dup %d\n", c.NewHighBytes, c.DupHighBytes)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := d.WriteFlowsCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d flow records to %s\n", len(d.Records()), *out)
	}
}
