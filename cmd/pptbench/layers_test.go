package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ppt/internal/sim"
)

// TestProfileOfHotLoop decodes a profile runtime/pprof wrote while the
// scheduler ran a hot loop, and expects the samples charged to sim.
func TestProfileOfHotLoop(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	s := sim.NewScheduler()
	var tick func()
	tick = func() { s.After(sim.Microsecond, tick) }
	for i := 0; i < 1000; i++ {
		s.At(sim.Time(i), tick)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		s.RunUntil(s.Now() + sim.Millisecond)
	}
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := newAttribution()
	a.add(p)
	if a.count < 10 {
		t.Skipf("only %d samples; the host gave the loop too little CPU", a.count)
	}
	// Among samples charged to repository code: under -race, the race
	// runtime's frames end the traceback, so many samples reach no
	// repository frame and land in runtime.
	repo := a.total - a.ns["runtime"]
	if repo == 0 {
		t.Fatalf("no sample reached repository code (shares %v)", a.ns)
	}
	if f := float64(a.ns["sim"]) / float64(repo); f < 0.6 {
		t.Errorf("sim share %.2f of repository time, want >= 0.6 (shares %v)", f, a.ns)
	}
}

// TestAttribution charges synthetic stacks: runtime and library frames go
// to their nearest repository caller, cross.go and deliverCross to
// netsim.cross, sharded.go to transport.sharded, stacks without a
// repository frame to runtime; allocation and GC frames anywhere on the
// stack count toward gc.frac; the "cell" label splits time per scheme.
func TestAttribution(t *testing.T) {
	p := &profile{
		sampleTypes: []string{"samples/count", "cpu/nanoseconds"},
		locations: map[uint64][]frame{
			1: {{fn: "runtime.mapaccess2_fast32", file: "map_fast32.go"}},
			2: {{fn: "ppt/internal/netsim.(*Host).Receive", file: "/src/internal/netsim/host.go"}},
			3: {{fn: "ppt/internal/sim.(*Scheduler).RunUntil", file: "/src/internal/sim/sim.go"}},
			4: {{fn: "runtime.mallocgc", file: "malloc.go"}},
			5: {{fn: "ppt/internal/netsim.(*Port).deliverCross", file: "/src/internal/netsim/port.go"}},
			6: {{fn: "ppt/internal/netsim.MergeWindows", file: "/src/internal/netsim/cross.go"}},
			7: {{fn: "ppt/internal/transport.runShardedSource", file: "/src/internal/transport/sharded.go"}},
			8: {{fn: "runtime.gcBgMarkWorker", file: "mgc.go"}},
			9: {{fn: "main.runCell", file: "/src/cmd/pptbench/cells.go"}},
			// An inlined call: sort's frame first, its stats caller last.
			10: {{fn: "sort.insertionSort", file: "zsortfunc.go"}, {fn: "ppt/internal/stats.(*Collector).MergeCanonical", file: "/src/internal/stats/stats.go"}},
			11: {{fn: "ppt/internal/exp.execute", file: "/src/internal/exp/schemes.go"}},
			12: {{fn: "ppt/internal/transport/ppt.(*sender).onAck", file: "/src/internal/transport/ppt/ppt.go"}},
		},
	}
	add := func(cell string, locs ...uint64) {
		s := profSample{locs: locs, values: []int64{1, 10}}
		if cell != "" {
			s.labels = map[string]string{"cell": cell}
		}
		p.samples = append(p.samples, s)
	}
	add("", 1, 2, 3)    // netsim: the map lookup is charged to Host.Receive
	add("", 4, 2, 3)    // netsim, allocating
	add("", 5, 3)       // netsim.cross by function
	add("", 6, 7)       // netsim.cross by file
	add("", 7, 11)      // transport.sharded
	add("", 8)          // runtime, GC
	add("", 9)          // bench
	add("", 10, 9)      // stats through the inlined frame
	add("", 11)         // other
	add("ppt", 12, 7)   // transport.ppt, in the ppt cell
	add("ppt", 1, 3)    // sim, in the ppt cell
	add("dctcp", 4, 12) // transport.ppt, allocating, in the dctcp cell

	a := newAttribution()
	a.add(p)
	want := map[string]int64{
		"netsim": 20, "netsim.cross": 20, "transport.sharded": 10, "runtime": 10,
		"bench": 10, "stats": 10, "other": 10, "transport.ppt": 20, "sim": 10,
	}
	for l, ns := range want {
		if a.ns[l] != ns {
			t.Errorf("layer %s: %d ns, want %d", l, a.ns[l], ns)
		}
	}
	if len(a.ns) != len(want) {
		t.Errorf("layers charged: %v, want %v", a.ns, want)
	}
	if a.total != 120 || a.count != 12 || a.gcNs != 30 {
		t.Errorf("total %d ns / %d samples / gc %d ns, want 120 / 12 / 30", a.total, a.count, a.gcNs)
	}
	if got := a.cellNs["ppt"]; got["transport.ppt"] != 10 || got["sim"] != 10 || len(got) != 2 {
		t.Errorf("ppt cell: %v", got)
	}
	if got := a.cellNs["dctcp"]; got["transport.ppt"] != 10 || len(got) != 1 {
		t.Errorf("dctcp cell: %v", got)
	}
	sum := 0.0
	for _, l := range layers {
		sum += a.frac(l)
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("shares over the layer list sum to %v", sum)
	}
}

// TestEveryPackageHasALayer walks internal/ so a new package cannot land
// in no layer, and rejects table entries for packages that are gone.
func TestEveryPackageHasALayer(t *testing.T) {
	root := filepath.Join("..", "..", "internal")
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		seen[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for dir := range seen {
		l, ok := layerOf[dir]
		if !ok {
			t.Errorf("internal/%s has no layer in layerOf", dir)
		} else if !known[l] {
			t.Errorf("internal/%s maps to %q, which is not in layers", dir, l)
		}
	}
	for dir := range layerOf {
		if !seen[dir] {
			t.Errorf("layerOf names internal/%s, which holds no Go package", dir)
		}
	}
}

func TestSplitFunc(t *testing.T) {
	for _, tc := range []struct{ fn, pkg, name string }{
		{"ppt/internal/netsim.(*Port).deliverCross", "ppt/internal/netsim", "(*Port).deliverCross"},
		{"main.runCell.func1", "main", "runCell.func1"},
		{"runtime.mallocgc", "runtime", "mallocgc"},
		{"ppt/internal/sim.f[go.shape.*ppt/internal/netsim.Packet]", "ppt/internal/sim", "f[go.shape.*ppt/internal/netsim.Packet]"},
	} {
		if pkg, name := splitFunc(tc.fn); pkg != tc.pkg || name != tc.name {
			t.Errorf("splitFunc(%q) = %q, %q; want %q, %q", tc.fn, pkg, name, tc.pkg, tc.name)
		}
	}
}
