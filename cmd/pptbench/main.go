// Command pptbench is the repository's benchmark. It builds the cells of
// four workloads from the simulator's layers — the calls internal/exp
// makes for fig12, scale1M and fig9 — times them from outside, checks
// their outcomes, and reports end-to-end metrics (timed runs) or
// per-layer metrics (traced runs, from an in-process CPU profile).
//
// One run of one workload, the form BENCHMARK.json names (the last
// stdout line is the JSON result):
//
//	pptbench -workload ws-leafspine -seed 1 -seconds 20 -trace 0
//
// Repeated runs, one child process per run, rotating through the
// workloads:
//
//	pptbench [-seed 1] [-repeats 3] [-seconds 10] [-trace 0|1] [-workloads a,b] [-out bench.json]
//
// Interleaved A/B of two pptbench binaries:
//
//	pptbench -ab OLD_BIN,NEW_BIN [-pairs 10] [-seed 2]
//
// See README.md for the workloads and the metric dictionary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pptbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pptbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "run this one workload in this process and print its result line")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same flows")
	seconds := fs.Float64("seconds", 10, "how long one run measures, in seconds")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics, 0 for a timed run reporting end-to-end metrics")
	wls := fs.String("workloads", workloadNames(), "comma-separated workloads for the repeated and A/B modes")
	repeats := fs.Int("repeats", 3, "runs per workload in the repeated mode")
	out := fs.String("out", "", "also write the repeated or A/B mode's summary as JSON to this file")
	ab := fs.String("ab", "", "OLD_BIN,NEW_BIN: run two pptbench binaries in interleaved pairs and compare")
	pairs := fs.Int("pairs", 10, "pairs per workload in the A/B mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds > 0) || *seconds > 3600 {
		return fmt.Errorf("-seconds must be in (0, 3600], got %g", *seconds)
	}
	budget := time.Duration(*seconds * float64(time.Second))

	if *wl != "" {
		w, err := workloadByName(*wl)
		if err != nil {
			return err
		}
		return runOne(stdout, w, *seed, budget, *trace == 1)
	}
	var ws []*benchWorkload
	for _, name := range strings.Split(*wls, ",") {
		w, err := workloadByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	ch := childArgs{seed: *seed, seconds: *seconds, trace: *trace}
	if *ab != "" {
		old, nu, ok := strings.Cut(*ab, ",")
		if !ok || old == "" || nu == "" {
			return fmt.Errorf("-ab wants OLD_BIN,NEW_BIN, got %q", *ab)
		}
		if *pairs < 2 {
			return fmt.Errorf("-pairs must be at least 2, got %d", *pairs)
		}
		if *trace != 0 {
			return fmt.Errorf("-ab compares timed runs; drop -trace")
		}
		return runAB(stdout, old, nu, ws, ch, *pairs, *out)
	}
	if *repeats < 1 {
		return fmt.Errorf("-repeats must be at least 1, got %d", *repeats)
	}
	return runRepeated(stdout, self, ws, ch, *repeats, *out)
}

// runOne performs one run in this process and prints its report: a
// header, the machine stanza and run facts as an "info:" JSON line, one
// line per metric, and last the JSON result line. A run whose outputs
// fail a check prints its result with "correct": false and returns an
// error, so the process exits 1.
func runOne(stdout io.Writer, w *benchWorkload, seed int64, budget time.Duration, trace bool) error {
	res, info, err := measure(w, seed, budget, trace)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "pptbench %s seed=%d trace=%d rounds=%d digest=%s\n", w.name, seed, info.Trace, info.Rounds, info.Digest)
	ij, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "info: %s\n", ij)
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", w.name, name, m.Value)
		}
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", rj)
	if !res.Correct {
		for _, p := range info.Problems {
			fmt.Fprintln(os.Stderr, "pptbench: check failed:", p)
		}
		return fmt.Errorf("%s: %d output check(s) failed", w.name, len(info.Problems))
	}
	return nil
}
