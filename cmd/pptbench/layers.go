package main

import (
	"path"
	"strings"
)

// repoModule is the module path of the code under test.
const repoModule = "ppt"

// layerOf charges each package directory under internal/ to a layer.
// Packages the benchmark never runs share the "other" layer, so a stray
// sample still shows. layers_test walks internal/ and fails on a package
// missing here.
var layerOf = map[string]string{
	"sim":                     "sim",
	"netsim":                  "netsim",
	"topo":                    "topo",
	"transport":               "transport",
	"transport/ppt":           "transport.ppt",
	"transport/dctcp":         "transport.dctcp",
	"stats":                   "stats",
	"workload":                "workload",
	"bufaware":                "bufaware",
	"exp":                     "other",
	"cache":                   "other",
	"benchfmt":                "other",
	"transport/aeolus":        "other",
	"transport/conformance":   "other",
	"transport/expresspass":   "other",
	"transport/halfback":      "other",
	"transport/homa":          "other",
	"transport/hpcc":          "other",
	"transport/lowloop":       "other",
	"transport/ndp":           "other",
	"transport/pias":          "other",
	"transport/rc3":           "other",
	"transport/swift":         "other",
	"transport/transporttest": "other",
}

// layers lists every layer a sample can be charged to, in report order.
// "bench" is this program's own code; "runtime" takes samples with no
// repository frame at all (GC workers, the scheduler, the profiler).
var layers = []string{
	"sim", "netsim", "netsim.cross", "topo", "transport", "transport.sharded",
	"transport.ppt", "transport.dctcp", "stats", "workload", "bufaware",
	"bench", "other", "runtime",
}

// splitFunc splits a qualified function name into its package path and
// the rest: "ppt/internal/netsim.(*Port).deliverCross" gives
// "ppt/internal/netsim" and "(*Port).deliverCross". Type arguments of a
// generic instance may hold slashes of their own, so the package path
// ends at the last slash before any '['.
func splitFunc(fn string) (pkg, name string) {
	head := fn
	if i := strings.IndexByte(fn, '['); i >= 0 {
		head = fn[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

// frameLayer returns the layer a repository frame belongs to, or "" for
// a frame outside the repository (runtime, standard library).
func frameLayer(f frame) string {
	pkg, name := splitFunc(f.fn)
	switch {
	case pkg == "main" || pkg == repoModule+"/cmd/pptbench": // the latter in test binaries
		return "bench"
	case strings.HasPrefix(pkg, repoModule+"/internal/"):
		l, ok := layerOf[strings.TrimPrefix(pkg, repoModule+"/internal/")]
		switch {
		case !ok:
			return "other"
		case l == "netsim" && (path.Base(f.file) == "cross.go" || strings.HasPrefix(name, "(*Port).deliverCross")):
			return "netsim.cross"
		case l == "transport" && path.Base(f.file) == "sharded.go":
			return "transport.sharded"
		}
		return l
	case pkg == repoModule || strings.HasPrefix(pkg, repoModule+"/"):
		return "other"
	}
	return ""
}

// isGC reports whether a frame is allocation or garbage-collection work.
func isGC(fn string) bool {
	return fn == "runtime.mallocgc" || fn == "runtime.gcBgMarkWorker" ||
		strings.HasPrefix(fn, "runtime.gcAssist")
}

// attribution is CPU time charged to layers.
type attribution struct {
	ns     map[string]int64            // layer -> CPU ns
	cellNs map[string]map[string]int64 // "cell" label -> layer -> CPU ns
	gcNs   int64                       // of all samples, with GC work on the stack
	total  int64                       // CPU ns over every sample
	count  int64                       // samples
}

func newAttribution() *attribution {
	return &attribution{ns: map[string]int64{}, cellNs: map[string]map[string]int64{}}
}

// add charges every sample of p to the layer of its innermost repository
// frame, so runtime and library work (map lookups, allocation) lands in
// the repository code that called it.
func (a *attribution) add(p *profile) {
	cpu, cnt := p.valueIndex("cpu/nanoseconds"), p.valueIndex("samples/count")
	for _, s := range p.samples {
		var ns, n int64
		if cpu >= 0 && cpu < len(s.values) {
			ns = s.values[cpu]
		}
		if cnt >= 0 && cnt < len(s.values) {
			n = s.values[cnt]
		}
		layer, gc := "", false
		for _, id := range s.locs {
			for _, f := range p.locations[id] {
				if layer == "" {
					layer = frameLayer(f)
				}
				gc = gc || isGC(f.fn)
			}
		}
		if layer == "" {
			layer = "runtime"
		}
		a.ns[layer] += ns
		a.total += ns
		a.count += n
		if gc {
			a.gcNs += ns
		}
		if c, ok := s.labels["cell"]; ok {
			m := a.cellNs[c]
			if m == nil {
				m = map[string]int64{}
				a.cellNs[c] = m
			}
			m[layer] += ns
		}
	}
}

// frac is a layer's share of all CPU time.
func (a *attribution) frac(layer string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.ns[layer]) / float64(a.total)
}
