package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// The repeated and A/B modes run every measurement in a child process —
// one at a time, so runs never compete for the CPUs — and aggregate the
// children's result lines. Workloads rotate round-robin, so drift on the
// host hits every workload alike.

// childArgs are the run settings passed to every child.
type childArgs struct {
	seed    int64
	seconds float64
	trace   int
}

// childRun is one child's report.
type childRun struct {
	res  result
	info runInfo
}

// runChild runs one workload in a child process of bin and parses its
// report. It spells flags as BENCHMARK.json's command does, which every
// version of pptbench accepts.
func runChild(bin, workload string, a childArgs) (childRun, error) {
	cmd := exec.Command(bin, "--workload", workload,
		"--seed", strconv.FormatInt(a.seed, 10),
		"--seconds", strconv.FormatFloat(a.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(a.trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var c childRun
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		if js, ok := strings.CutPrefix(l, "info: "); ok {
			if err := json.Unmarshal([]byte(js), &c.info); err != nil {
				return c, fmt.Errorf("%s %s: bad info line: %w", bin, workload, err)
			}
		}
	}
	if runErr != nil {
		return c, fmt.Errorf("%s %s: %w", bin, workload, runErr)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.res); err != nil {
		return c, fmt.Errorf("%s %s: bad result line: %w", bin, workload, err)
	}
	if !c.res.Correct {
		return c, fmt.Errorf("%s %s: output checks failed: %v", bin, workload, c.info.Problems)
	}
	return c, nil
}

// spreadStats summarizes one metric over runs.
type spreadStats struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, xs []float64) spreadStats {
	s := spreadStats{Unit: unit, Median: median(xs), N: len(xs), Values: xs,
		Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Q1, s.Q3 = quartiles(xs)
	return s
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write summary: %w", err)
	}
	return nil
}

// printMachine prints the first run's machine stanza with the median
// calibration time over every run.
func printMachine(stdout io.Writer, runs []childRun) machine {
	m := runs[0].info.Machine
	var calib []float64
	for _, r := range runs {
		calib = append(calib, r.info.Machine.CalibMs)
	}
	m.CalibMs = median(calib)
	fmt.Fprintf(stdout, "machine: %s %s/%s num_cpu=%d gomaxprocs=%d cpu=%q env.calib_ms=%.3f (median of %d runs)\n",
		m.Go, m.GOOS, m.GOARCH, m.NumCPU, m.GOMAXPROCS, m.CPUModel, m.CalibMs, len(calib))
	return m
}

type workloadSummary struct {
	Digest   string                 `json:"digest"`
	FailFrac float64                `json:"fail_frac"`
	Metrics  map[string]spreadStats `json:"metrics"`
}

// runRepeated runs each workload repeats times and prints every metric's
// median, min, max and run count. Summaries must agree across repeats
// (one seed), and between ws-leafspine and ws-leafspine-2w.
func runRepeated(stdout io.Writer, self string, ws []*benchWorkload, a childArgs, repeats int, outPath string) error {
	runs := map[string][]childRun{}
	var all []childRun
	for rep := 1; rep <= repeats; rep++ {
		for _, w := range ws {
			fmt.Fprintf(os.Stderr, "pptbench: repeat %d/%d %s\n", rep, repeats, w.name)
			c, err := runChild(self, w.name, a)
			if err != nil {
				return err
			}
			runs[w.name] = append(runs[w.name], c)
			all = append(all, c)
		}
	}
	var problems []string
	for _, w := range ws {
		for i, c := range runs[w.name][1:] {
			if d := runs[w.name][0].info.Digest; c.info.Digest != d {
				problems = append(problems, fmt.Sprintf("%s repeat %d digest %s differs from repeat 1's %s", w.name, i+2, c.info.Digest, d))
			}
		}
	}
	if one, two := runs["ws-leafspine"], runs["ws-leafspine-2w"]; len(one) > 0 && len(two) > 0 && one[0].info.Digest != two[0].info.Digest {
		problems = append(problems, fmt.Sprintf("ws-leafspine-2w digest %s differs from ws-leafspine's %s", two[0].info.Digest, one[0].info.Digest))
	}

	defs := endToEnd
	if a.trace == 1 {
		defs = perLayer
	}
	summary := struct {
		Machine   machine                    `json:"machine"`
		Seed      int64                      `json:"seed"`
		Trace     int                        `json:"trace"`
		Workloads map[string]workloadSummary `json:"workloads"`
		Problems  []string                   `json:"problems,omitempty"`
	}{Seed: a.seed, Trace: a.trace, Workloads: map[string]workloadSummary{}, Problems: problems}
	summary.Machine = printMachine(stdout, all)
	for _, w := range ws {
		rs := runs[w.name]
		attempted, failed := 0, 0
		for _, c := range rs {
			attempted += c.res.Attempted
			failed += c.res.Failed
		}
		s := workloadSummary{Digest: rs[0].info.Digest, FailFrac: ratio(float64(failed), float64(attempted)),
			Metrics: map[string]spreadStats{}}
		fmt.Fprintf(stdout, "%s (seed %d, %d runs, digest %s)\n", w.name, a.seed, len(rs), s.Digest)
		fmt.Fprintf(stdout, "  %-40s %14s %14s %14s %3s\n", "metric", "median", "min", "max", "n")
		for _, d := range defs {
			var xs []float64
			for _, c := range rs {
				xs = append(xs, c.res.Metrics[d.name].Value)
			}
			st := summarize(d.unit, xs)
			s.Metrics[d.name] = st
			fmt.Fprintf(stdout, "  %-40s %14.6g %14.6g %14.6g %3d %s\n", d.name, st.Median, st.Min, st.Max, st.N, d.unit)
		}
		fmt.Fprintf(stdout, "  %-40s %14.6g (%d of %d flows failed)\n", "fail_frac", s.FailFrac, failed, attempted)
		summary.Workloads[w.name] = s
	}
	if outPath != "" {
		if err := writeJSON(outPath, summary); err != nil {
			return err
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "pptbench: check failed:", p)
		}
		return fmt.Errorf("%d output check(s) failed", len(problems))
	}
	return nil
}

// abResult compares one metric of one workload between two binaries.
type abResult struct {
	Old     spreadStats `json:"old"`
	New     spreadStats `json:"new"`
	Wins    int         `json:"new_wins"`
	Pairs   int         `json:"pairs"`
	Verdict string      `json:"verdict"`
}

// better reports whether x reads better than y for metric d.
func better(d metricDef, x, y float64) bool {
	if d.better == "higher" {
		return x > y
	}
	return x < y
}

// compareAB judges paired runs (old[i] and nu[i] ran back to back):
//   - "regression": the new median is worse than the old by more than
//     the metric's bound;
//   - "gain": the new side wins at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than the old side's
//     interquartile range;
//   - "unresolved": the old side's spread is wider than the bound, and
//     not every new run reads better than every old run;
//   - "no change" otherwise.
func compareAB(d metricDef, old, nu []float64) abResult {
	r := abResult{Old: summarize(d.unit, old), New: summarize(d.unit, nu), Pairs: len(old)}
	for i := range old {
		if better(d, nu[i], old[i]) {
			r.Wins++
		}
	}
	worse := (r.New.Median - r.Old.Median) / r.Old.Median
	if d.better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, n := range nu {
		for _, o := range old {
			allBetter = allBetter && better(d, n, o)
		}
	}
	iqr := r.Old.Q3 - r.Old.Q1
	switch {
	case worse > d.bound:
		r.Verdict = "regression"
	case worse < 0 && r.Wins*10 >= 9*r.Pairs && math.Abs(r.New.Median-r.Old.Median) > iqr:
		r.Verdict = "gain"
	case iqr/math.Abs(r.Old.Median) > d.bound && !allBetter:
		r.Verdict = "unresolved"
	default:
		r.Verdict = "no change"
	}
	return r
}

// runAB runs old and new in interleaved pairs, alternating which side
// runs first, on the same seed, and prints each side's median and
// quartiles, the pairs the new side won and the verdict per workload and
// end-to-end metric.
func runAB(stdout io.Writer, oldBin, newBin string, ws []*benchWorkload, a childArgs, pairs int, outPath string) error {
	bins := [2]string{oldBin, newBin}
	runs := map[string]*[2][]childRun{}
	var all []childRun
	for _, w := range ws {
		runs[w.name] = &[2][]childRun{}
	}
	for p := 0; p < pairs; p++ {
		for _, w := range ws {
			for k := 0; k < 2; k++ {
				side := (p + k) % 2
				fmt.Fprintf(os.Stderr, "pptbench: pair %d/%d %s %s\n", p+1, pairs, w.name, [2]string{"old", "new"}[side])
				c, err := runChild(bins[side], w.name, a)
				if err != nil {
					return err
				}
				runs[w.name][side] = append(runs[w.name][side], c)
				all = append(all, c)
			}
		}
	}
	summary := struct {
		Machine   machine                        `json:"machine"`
		Old       string                         `json:"old"`
		New       string                         `json:"new"`
		Seed      int64                          `json:"seed"`
		Workloads map[string]map[string]abResult `json:"workloads"`
	}{Old: oldBin, New: newBin, Seed: a.seed, Workloads: map[string]map[string]abResult{}}
	summary.Machine = printMachine(stdout, all)
	fmt.Fprintf(stdout, "old=%s new=%s seed=%d pairs=%d\n", oldBin, newBin, a.seed, pairs)
	for _, w := range ws {
		m := map[string]abResult{}
		fmt.Fprintf(stdout, "%s\n  %-16s %32s %32s %6s  %s\n", w.name, "metric", "old median [q1, q3]", "new median [q1, q3]", "wins", "verdict")
		for _, d := range endToEnd {
			var xs [2][]float64
			for side := range xs {
				for _, c := range runs[w.name][side] {
					xs[side] = append(xs[side], c.res.Metrics[d.name].Value)
				}
			}
			r := compareAB(d, xs[0], xs[1])
			m[d.name] = r
			fmt.Fprintf(stdout, "  %-16s %32s %32s %3d/%-2d  %s (bound %.0f%%)\n", d.name,
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", r.Old.Median, r.Old.Q1, r.Old.Q3, d.unit),
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", r.New.Median, r.New.Q1, r.New.Q3, d.unit),
				r.Wins, r.Pairs, r.Verdict, d.bound*100)
		}
		summary.Workloads[w.name] = m
	}
	if outPath != "" {
		return writeJSON(outPath, summary)
	}
	return nil
}
