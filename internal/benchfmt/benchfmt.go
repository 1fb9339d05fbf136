// Package benchfmt defines the schema of the checked-in BENCH_*.json
// perf-trajectory files, shared by the writer (pptsim -benchjson) and
// the regression gate (cmd/benchcmp, scripts/benchcmp.sh).
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
)

// Entry is one experiment's measurement.
type Entry struct {
	Name         string  // experiment id
	NsPerOp      int64   // wall-clock ns for one full experiment run
	AllocsPerOp  uint64  // heap allocations during the run
	BytesPerOp   uint64  // heap bytes allocated during the run
	Events       uint64  // scheduler events executed across all cells
	EventsPerSec float64 // Events / wall-clock seconds

	// Windowed-engine extras, present only on sharded entries. They
	// let benchcmp's speedup report say *why* parallelism changed:
	// rounds are barrier synchronizations; windows run/skipped count
	// per-shard window executions vs idle skips; barrier-frac is the
	// share of engine wall-clock spent at barriers; event-min/max-share
	// bound each shard's share of the executed events (spread = load
	// imbalance, deterministic on any machine — unlike the wall-clock
	// busy fractions they replaced, which degenerated to 1/shards on
	// time-shared CPUs).
	Rounds         uint64  `json:",omitempty"`
	WindowsRun     uint64  `json:",omitempty"`
	WindowsSkipped uint64  `json:",omitempty"`
	CrossPackets   uint64  `json:",omitempty"`
	BarrierFrac    float64 `json:",omitempty"`
	EventMinShare  float64 `json:",omitempty"`
	EventMaxShare  float64 `json:",omitempty"`

	// Result-cache accounting, present only when -benchjson ran with
	// -cache. A hit-dominated entry measured replay latency rather than
	// engine throughput, so benchcmp drops it from the ns/op gate (its
	// timing would "improve" by whatever factor the cache saved and mask
	// a real engine regression underneath).
	CacheHits   uint64 `json:",omitempty"`
	CacheMisses uint64 `json:",omitempty"`
}

// File is a full BENCH_<date>.json: machine identification plus one
// entry per benchmarked experiment, recorded so the repo's perf
// trajectory is diffable across PRs.
type File struct {
	Date      string
	GoVersion string
	GOOS      string
	GOARCH    string
	NumCPU    int
	Flows     int // workload size every entry ran with
	Entries   []Entry
}

// Read loads and decodes one bench file.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Write encodes f to path, indented, with a trailing newline.
func (f *File) Write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// ByName indexes the entries.
func (f *File) ByName() map[string]Entry {
	m := make(map[string]Entry, len(f.Entries))
	for _, e := range f.Entries {
		m[e.Name] = e
	}
	return m
}
