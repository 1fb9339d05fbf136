package swift

import (
	"testing"

	"ppt/internal/sim"
	"ppt/internal/topo"
	"ppt/internal/transport"
	"ppt/internal/transport/transporttest"
)

func TestSingleFlowCompletes(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	sum := transporttest.MustComplete(t, env, Proto{}, []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 2_000_000},
	})
	if sum.OverallAvg < 1600*sim.Microsecond {
		t.Fatalf("impossibly fast: %v", sum.OverallAvg)
	}
}

func TestDelayStaysNearTarget(t *testing.T) {
	// Two elephants: delay-based control should keep the standing queue
	// bounded so no drops occur with a moderate buffer.
	env := transporttest.NewStarEnv(4, transporttest.WithBuffer(400_000))
	flows := []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 2, Size: 5_000_000},
		{ID: 2, Src: 1, Dst: 2, Size: 5_000_000},
	}
	transporttest.MustComplete(t, env, Proto{}, flows)
	var drops int64
	for _, p := range env.Net.SwitchPorts() {
		drops += p.Stats.Drops
	}
	if drops != 0 {
		t.Fatalf("swift dropped %d packets", drops)
	}
}

// TestTargetDelayFollowsTheFabric: the delay target Start sets is 1.5×
// the base RTT, on two star fabrics with different BDPs.
func TestTargetDelayFollowsTheFabric(t *testing.T) {
	for _, delay := range []sim.Time{5 * sim.Microsecond, 20 * sim.Microsecond} {
		env := transporttest.NewStarEnv(2, func(c *topo.Config) { c.LinkDelay = delay })
		size := 4 * int64(env.BDP())
		f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: size, FirstCall: size}
		p := Proto{}
		p.StartReceiver(env, f)
		p.StartSender(env, f)
		s := f.Src.Unbind(f.ID, false).(*sender)
		if want := env.BaseRTT() * 3 / 2; s.target != want {
			t.Errorf("base RTT %v: target delay %v, want %v", env.BaseRTT(), s.target, want)
		}
	}
}

func TestAdjustIncreasesBelowTarget(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 1 << 30}
	s := newSender(env, f, false)
	before := s.Cwnd
	s.adjust(s.target/2, 10_000)
	if s.Cwnd <= before {
		t.Fatal("no additive increase below target delay")
	}
}

func TestAdjustDecreasesAboveTarget(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 1 << 30}
	s := newSender(env, f, false)
	s.srtt = env.BaseRTT()
	before := s.Cwnd
	s.adjust(s.target*3, 10_000)
	if s.Cwnd >= before {
		t.Fatal("no decrease above target delay")
	}
	// Bounded by maxMD.
	if s.Cwnd < before*(1-maxMD)-1 {
		t.Fatalf("decrease %v -> %v exceeds maxMD", before, s.Cwnd)
	}
}

func TestDecreaseThrottledPerRTT(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 1 << 30}
	s := newSender(env, f, false)
	s.srtt = env.BaseRTT()
	s.adjust(s.target*3, 10_000)
	after := s.Cwnd
	s.adjust(s.target*3, 10_000) // same instant: throttled
	if s.Cwnd != after {
		t.Fatal("second decrease within an RTT not throttled")
	}
}

func TestWithPPTBeatsPlainSwiftOnIdleNetwork(t *testing.T) {
	mk := func(withPPT bool) sim.Time {
		env := transporttest.NewStarEnv(4)
		sum := transporttest.MustComplete(t, env, Proto{Cfg: Config{WithPPT: withPPT}},
			[]transport.SimpleFlow{{ID: 1, Src: 0, Dst: 1, Size: 90_000, FirstCall: 1_000}})
		return sum.OverallAvg
	}
	plain := mk(false)
	dual := mk(true)
	if dual > plain {
		t.Fatalf("swift+ppt (%v) slower than swift (%v) on idle network", dual, plain)
	}
}

func TestWithPPTCompletesWorkload(t *testing.T) {
	env := transporttest.NewStarEnv(6)
	transporttest.MustComplete(t, env, Proto{Cfg: Config{WithPPT: true}},
		transporttest.MixedFlows(6, 3_000_000, 20_000))
}

func TestNames(t *testing.T) {
	if (Proto{}).Name() != "swift" {
		t.Fatal("name")
	}
	if (Proto{Cfg: Config{WithPPT: true}}).Name() != "swift+ppt" {
		t.Fatal("variant name")
	}
}
