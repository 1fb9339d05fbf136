package ppt

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunDetailed(t *testing.T) {
	d, err := RunDetailed(Config{Transport: TransportPPT, Flows: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.Summary.Flows != 80 {
		t.Fatalf("flows = %d", d.Summary.Flows)
	}
	if d.Slowdowns.Mean < 1.0 {
		t.Fatalf("mean slowdown %v < 1 under load", d.Slowdowns.Mean)
	}
	if d.Jain <= 0 || d.Jain > 1 {
		t.Fatalf("jain = %v", d.Jain)
	}
	if d.TransferEfficiency <= 0.5 || d.TransferEfficiency > 1.0 {
		t.Fatalf("efficiency = %v", d.TransferEfficiency)
	}
	var total int
	for _, b := range d.Buckets {
		total += b.Count
	}
	if total != 80 {
		t.Fatalf("buckets cover %d flows", total)
	}
	if len(d.Records()) != 80 {
		t.Fatalf("records = %d", len(d.Records()))
	}
}

func TestRunDetailedCSVExport(t *testing.T) {
	d, err := RunDetailed(Config{Transport: TransportDCTCP, Flows: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteFlowsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 31 { // header + 30 flows
		t.Fatalf("csv lines = %d", lines)
	}
}

func TestRunDetailedLowLoopShare(t *testing.T) {
	// DCTCP has no low loop; PPT does.
	plain, err := RunDetailed(Config{Transport: TransportDCTCP, Topology: TopologyTestbed, Flows: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.LowLoopShare != 0 {
		t.Fatalf("dctcp low-loop share = %v", plain.LowLoopShare)
	}
	dual, err := RunDetailed(Config{Transport: TransportPPT, Topology: TopologyTestbed, Flows: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dual.LowLoopShare <= 0 {
		t.Fatal("ppt low-loop share = 0: LCP inert")
	}
}

func TestRunDetailedRejectsBadConfig(t *testing.T) {
	if _, err := RunDetailed(Config{Transport: "nope"}); err == nil {
		t.Fatal("bad transport accepted")
	}
	if _, err := RunDetailed(Config{Workload: "nope"}); err == nil {
		t.Fatal("bad workload accepted")
	}
}

func TestRunDetailedRejectsBadScale(t *testing.T) {
	for _, tc := range badScales {
		if _, err := RunDetailed(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunDetailed(Flows=%d Load=%v) error = %v, want one naming %s",
				tc.cfg.Flows, tc.cfg.Load, err, tc.want)
		}
	}
}
