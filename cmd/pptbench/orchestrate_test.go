package main

import (
	"io"
	"strings"
	"testing"
)

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 4, 7}, 1.75, 9.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{2.5, 0.5, 1.5}, 0.5, 2.5},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCompareAB(t *testing.T) {
	lower := metricDef{name: "t", unit: "ns", better: "lower", bound: 0.1}
	higher := metricDef{name: "r", unit: "1/s", better: "higher", bound: 0.1}
	old := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 85, 115, 100}
	for _, tc := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"faster", lower, old, shift(old, 0.9), "gain"},
		{"slower", lower, old, shift(old, 1.2), "regression"},
		{"same", lower, old, old, "no change"},
		{"within bound", lower, old, shift(old, 1.05), "no change"},
		{"noisy", lower, noisy, noisy, "unresolved"},
		{"higher is better", higher, old, shift(old, 1.1), "gain"},
		{"higher regresses", higher, old, shift(old, 0.8), "regression"},
	} {
		if got := compareAB(tc.d, tc.old, tc.new); got.Verdict != tc.want {
			t.Errorf("%s: verdict %q (%d/%d wins), want %q", tc.name, got.Verdict, got.Wins, got.Pairs, tc.want)
		}
	}
}

// TestFlagErrors checks that bad invocations fail with a message rather
// than a run.
func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "ws-leafspine", "-trace", "2"},
		{"-workload", "ws-leafspine", "-seconds", "0"},
		{"-workload", "ws-leafspine", "stray"},
		{"-workloads", "ws-leafspine,nope"},
		{"-ab", "onlyone"},
		{"-ab", "a,b", "-trace", "1"},
		{"-repeats", "0"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%s) succeeded, want an error", strings.Join(args, " "))
		}
	}
}
