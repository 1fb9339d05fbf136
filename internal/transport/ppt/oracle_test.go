package ppt

import (
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/topo"
	"ppt/internal/transport"
)

func oracleEnv() *transport.Env {
	return transport.NewEnv(topo.Star(4, topo.Config{
		HostRate:     10 * netsim.Gbps,
		LinkDelay:    20 * sim.Microsecond,
		ECNHighK:     100_000,
		ECNLowK:      80_000,
		SharedBuffer: 4 << 20,
	}))
}

func oracleFlows() []transport.SimpleFlow {
	return []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 400_000},
		{ID: 2, Src: 2, Dst: 1, Size: 400_000, Arrive: 50 * sim.Microsecond},
		{ID: 3, Src: 3, Dst: 1, Size: 80_000, Arrive: 300 * sim.Microsecond},
	}
}

func TestMWRecorderCapturesWindows(t *testing.T) {
	env := oracleEnv()
	rec := NewMWRecorder()
	sum := transport.Run(env, rec, oracleFlows(), transport.RunConfig{})
	if sum.Flows != 3 {
		t.Fatalf("completed %d", sum.Flows)
	}
	mws := rec.MW()
	if len(mws) != 3 {
		t.Fatalf("recorded %d windows", len(mws))
	}
	for id, mw := range mws {
		if mw < netsim.MSS {
			t.Fatalf("flow %d MW = %v", id, mw)
		}
	}
}

// TestMWRecorderWindowedWorkers records a windowed run whose senders
// start in three leaf shards, on one worker and on four: the recorder
// sees every flow, and no recorded window depends on the worker count.
// Under -race it exercises StartSender from concurrent workers.
func TestMWRecorderWindowedWorkers(t *testing.T) {
	var flows []transport.SimpleFlow
	for i := 0; i < 30; i++ {
		flows = append(flows, transport.SimpleFlow{ID: uint32(i + 1), Src: i % 6, Dst: (i + 2) % 6,
			Size: 200_000, Arrive: sim.Time(i) * sim.Microsecond})
	}
	record := func(shards int) map[uint32]float64 {
		rec := NewMWRecorder()
		env := transport.NewEnv(topo.LeafSpine(3, 2, 2, topo.Config{Shards: shards}))
		if sum := transport.Run(env, rec, flows, transport.RunConfig{}); sum.Flows != len(flows) {
			t.Fatalf("shards=%d: completed %d of %d flows", shards, sum.Flows, len(flows))
		}
		return rec.MW()
	}
	one, four := record(1), record(4)
	if len(one) != len(flows) || len(four) != len(flows) {
		t.Fatalf("recorded %d and %d windows, want %d", len(one), len(four), len(flows))
	}
	for id, mw := range one {
		if four[id] != mw {
			t.Fatalf("flow %d: MW %v on one worker, %v on four", id, mw, four[id])
		}
	}
}

func TestOracleBeatsDCTCP(t *testing.T) {
	flows := oracleFlows()
	// Pass 1: record MW.
	rec := NewMWRecorder()
	base := transport.Run(oracleEnv(), rec, flows, transport.RunConfig{})
	// Pass 2: fill to MW.
	sum := transport.Run(oracleEnv(), Oracle{MW: rec.MW()}, flows, transport.RunConfig{})
	if sum.Flows != 3 {
		t.Fatalf("completed %d", sum.Flows)
	}
	if sum.OverallAvg >= base.OverallAvg {
		t.Fatalf("oracle %v not faster than DCTCP %v", sum.OverallAvg, base.OverallAvg)
	}
}

func TestOracleOverfillHurts(t *testing.T) {
	// §2.3 Fig 3: filling beyond MW bursts and loses packets. With a
	// tight buffer, 1.5×MW must not beat 1.0×MW.
	tight := func() *transport.Env {
		return transport.NewEnv(topo.Star(4, topo.Config{
			HostRate:     10 * netsim.Gbps,
			LinkDelay:    20 * sim.Microsecond,
			ECNHighK:     60_000,
			ECNLowK:      48_000,
			SharedBuffer: 150_000,
		}))
	}
	flows := []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 600_000},
		{ID: 2, Src: 2, Dst: 1, Size: 600_000, Arrive: 20 * sim.Microsecond},
		{ID: 3, Src: 3, Dst: 1, Size: 600_000, Arrive: 40 * sim.Microsecond},
	}
	rec := NewMWRecorder()
	transport.Run(tight(), rec, flows, transport.RunConfig{})
	exact := transport.Run(tight(), Oracle{MW: rec.MW(), FillFraction: 1.0}, flows, transport.RunConfig{})
	over := transport.Run(tight(), Oracle{MW: rec.MW(), FillFraction: 1.5}, flows, transport.RunConfig{})
	if exact.Flows != 3 || over.Flows != 3 {
		t.Fatalf("incomplete: %d/%d", exact.Flows, over.Flows)
	}
	if float64(over.OverallAvg) < 0.95*float64(exact.OverallAvg) {
		t.Fatalf("1.5xMW (%v) should not beat 1.0xMW (%v)", over.OverallAvg, exact.OverallAvg)
	}
}

func TestOracleDefaultFillFraction(t *testing.T) {
	// Zero FillFraction behaves as 1.0.
	rec := NewMWRecorder()
	flows := oracleFlows()
	transport.Run(oracleEnv(), rec, flows, transport.RunConfig{})
	a := transport.Run(oracleEnv(), Oracle{MW: rec.MW()}, flows, transport.RunConfig{})
	b := transport.Run(oracleEnv(), Oracle{MW: rec.MW(), FillFraction: 1.0}, flows, transport.RunConfig{})
	if a.OverallAvg != b.OverallAvg {
		t.Fatalf("default fraction differs: %v vs %v", a.OverallAvg, b.OverallAvg)
	}
}

// TestOracleRefillsWithoutLowAcks: with no receiver bound no low ACK
// ever returns, so every fill is lost. The oracle presumes a fill
// delivered or lost by the tick after the next, so it must fill again
// within two ticks; a fill counted in flight until a low ACK covers it
// would silence the oracle after its first RTT.
func TestOracleRefillsWithoutLowAcks(t *testing.T) {
	env := oracleEnv()
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1],
		Size: 50_000_000, FirstCall: 50_000_000}
	Oracle{MW: map[uint32]float64{1: 400_000}}.StartSender(env, f)
	var perRTT []int64
	for k, prev := 1, int64(0); k <= 8; k++ {
		env.Sched().RunUntil(sim.Time(k) * env.BaseRTT())
		perRTT = append(perRTT, env.Eff.SentLowPayload-prev)
		prev = env.Eff.SentLowPayload
	}
	t.Logf("low bytes sent per base RTT: %v", perRTT)
	if perRTT[0] == 0 {
		t.Fatalf("low bytes sent per base RTT %v: no first fill", perRTT)
	}
	for k := 1; k+1 < len(perRTT); k++ {
		if perRTT[k] == 0 && perRTT[k+1] == 0 {
			t.Fatalf("low bytes sent per base RTT %v: no fill in RTTs %d and %d", perRTT, k+1, k+2)
		}
	}
}
