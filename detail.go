package ppt

import (
	"io"

	"ppt/internal/exp"
	"ppt/internal/stats"
)

// Detail is the full measurement set of one simulation run, beyond the
// headline Summary: per-size-class breakdowns, slowdowns (FCT normalized
// by unloaded ideal, the Homa/pFabric metric), fairness indices,
// transfer efficiency, and the raw per-flow records.
type Detail struct {
	Summary   Summary
	Buckets   []stats.Bucket
	Slowdowns stats.SlowdownSummary
	// Jain is Jain's fairness index over per-flow throughput (1 = fair).
	Jain float64
	// TransferEfficiency is distinct delivered bytes / payload bytes
	// sent (1 = no waste).
	TransferEfficiency float64
	// LowLoopShare is the fraction of delivered bytes carried by the
	// low-priority loop (PPT/RC3-family transports; 0 otherwise).
	LowLoopShare float64
	// Eff is the run's byte accounting, with the low loop's counters.
	Eff stats.Efficiency

	collector *stats.Collector
}

// WriteFlowsCSV dumps the raw per-flow completions for external
// analysis.
func (d *Detail) WriteFlowsCSV(w io.Writer) error {
	return d.collector.WriteCSV(w)
}

// Records returns the raw completions.
func (d *Detail) Records() []stats.FCTRecord {
	return d.collector.Records()
}

// RunDetailed is Run with the full measurement set.
func RunDetailed(cfg Config) (*Detail, error) {
	sum, env, err := exp.RunCell(cfg)
	if err != nil {
		return nil, err
	}
	d := &Detail{
		Summary:            sum,
		Buckets:            env.Collector.Buckets(stats.DefaultBucketBounds),
		Slowdowns:          env.Collector.Slowdowns(env.Net.BottleneckRate, env.Net.BaseRTT),
		Jain:               stats.JainIndex(env.Collector.Records()),
		TransferEfficiency: env.Eff.Overall(),
		Eff:                env.Eff,
		collector:          env.Collector,
	}
	if env.Eff.UsefulDelivered > 0 {
		d.LowLoopShare = float64(env.Eff.UsefulLow) / float64(env.Eff.UsefulDelivered)
	}
	return d, nil
}
