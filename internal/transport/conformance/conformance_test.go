// Package conformance runs every transport in the repository through a
// common battery of scenarios: an idle network, a loaded all-to-all
// workload, a hard incast, random (non-congestion) loss injection, and a
// tiny-buffer fabric. Every protocol must complete every flow in every
// scenario — the baseline property all the paper's experiments assume.
package conformance

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/topo"
	"ppt/internal/transport"
	"ppt/internal/transport/aeolus"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/expresspass"
	"ppt/internal/transport/halfback"
	"ppt/internal/transport/homa"
	"ppt/internal/transport/hpcc"
	"ppt/internal/transport/ndp"
	"ppt/internal/transport/pias"
	pptproto "ppt/internal/transport/ppt"
	"ppt/internal/transport/rc3"
	"ppt/internal/transport/swift"
	"ppt/internal/workload"
)

// proto describes one transport under test and its fabric needs.
type proto struct {
	name    string
	make    func() transport.Protocol
	tweak   func(*topo.Config)
	sendBuf int64 // Env.SendBuf (0 = unbounded)
}

func allProtocols() []proto {
	return []proto{
		{name: "dctcp", make: func() transport.Protocol { return dctcp.Proto{} }},
		{name: "tcp10", make: func() transport.Protocol { return dctcp.Proto{Cfg: dctcp.Config{NoECN: true}} }},
		{name: "ppt", make: func() transport.Protocol { return pptproto.Proto{} }},
		{name: "ppt-noecn", make: func() transport.Protocol { return pptproto.Proto{Cfg: pptproto.Config{DisableECN: true}} }},
		{name: "ppt-noewd", make: func() transport.Protocol { return pptproto.Proto{Cfg: pptproto.Config{DisableEWD: true}} }},
		{name: "ppt-nosched", make: func() transport.Protocol { return pptproto.Proto{Cfg: pptproto.Config{DisableScheduling: true}} }},
		{name: "ppt-sndbuf128k", make: func() transport.Protocol { return pptproto.Proto{} }, sendBuf: 128 << 10},
		{name: "rc3", make: func() transport.Protocol { return rc3.Proto{} }},
		{name: "pias", make: func() transport.Protocol { return pias.Proto{} }},
		{name: "halfback", make: func() transport.Protocol { return halfback.Proto{} }},
		{name: "swift", make: func() transport.Protocol { return swift.Proto{} }},
		{name: "swift+ppt", make: func() transport.Protocol { return swift.Proto{Cfg: swift.Config{WithPPT: true}} }},
		{name: "hpcc", make: func() transport.Protocol { return hpcc.Proto{} },
			tweak: func(c *topo.Config) { c.EnableINT = true }},
		{name: "hpcc+ppt", make: func() transport.Protocol { return hpcc.PPTVariant{} },
			tweak: func(c *topo.Config) { c.EnableINT = true }},
		{name: "homa", make: func() transport.Protocol { return homa.Proto{} }},
		{name: "aeolus", make: func() transport.Protocol { return aeolus.Proto{} },
			tweak: func(c *topo.Config) { c.DroppableThresh = 24_000 }},
		{name: "ndp", make: func() transport.Protocol { return ndp.Proto{} },
			tweak: func(c *topo.Config) { c.TrimToHeader = true }},
		{name: "expresspass", make: func() transport.Protocol { return expresspass.Proto{} }},
	}
}

// scenario shapes one fabric + workload combination.
type scenario struct {
	name   string
	adapt  func(*topo.Config)
	flows  func(cfg topo.Config, hosts int) []transport.SimpleFlow
	rtoMin sim.Time
}

func baseConfig() topo.Config {
	return topo.Config{
		HostRate:            10 * netsim.Gbps,
		LinkDelay:           5 * sim.Microsecond,
		ECNHighK:            30_000,
		ECNLowK:             24_000,
		SharedBuffer:        1 << 20,
		DynamicLowThreshold: true,
	}
}

func generated(pattern func(hosts int) workload.Pattern, load float64, n int) func(topo.Config, int) []transport.SimpleFlow {
	return func(cfg topo.Config, hosts int) []transport.SimpleFlow {
		wf := workload.Generate(workload.GenConfig{
			Dist: workload.WebSearch, Pattern: pattern(hosts), Load: load,
			HostRate: cfg.HostRate, NumFlows: n, Seed: 5,
		})
		flows := make([]transport.SimpleFlow, len(wf))
		for i, f := range wf {
			flows[i] = transport.SimpleFlow{ID: f.ID, Src: f.Src, Dst: f.Dst,
				Size: f.Size, Arrive: f.Arrive, FirstCall: f.Size}
		}
		return flows
	}
}

func scenarios() []scenario {
	return []scenario{
		{
			name: "idle-single-flow",
			flows: func(topo.Config, int) []transport.SimpleFlow {
				return []transport.SimpleFlow{{ID: 1, Src: 0, Dst: 1, Size: 777_777, FirstCall: 777_777}}
			},
		},
		{
			name:  "loaded-all-to-all",
			flows: generated(func(h int) workload.Pattern { return workload.AllToAll{N: h} }, 0.6, 60),
		},
		{
			name:  "hard-incast",
			flows: generated(func(h int) workload.Pattern { return workload.Incast{N: h, Target: 0} }, 0.9, 40),
		},
		{
			name:   "random-loss-1pct",
			adapt:  func(c *topo.Config) { c.LossProb = 0.01 },
			flows:  generated(func(h int) workload.Pattern { return workload.AllToAll{N: h} }, 0.4, 40),
			rtoMin: 300 * sim.Microsecond,
		},
		{
			name:   "tiny-buffer",
			adapt:  func(c *topo.Config) { c.SharedBuffer = 40_000 },
			flows:  generated(func(h int) workload.Pattern { return workload.Incast{N: h, Target: 0} }, 0.7, 30),
			rtoMin: 300 * sim.Microsecond,
		},
	}
}

func TestEveryTransportEveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance sweep")
	}
	const hosts = 8
	for _, sc := range scenarios() {
		for _, pr := range allProtocols() {
			sc, pr := sc, pr
			t.Run(fmt.Sprintf("%s/%s", sc.name, pr.name), func(t *testing.T) {
				t.Parallel()
				cfg := baseConfig()
				if sc.adapt != nil {
					sc.adapt(&cfg)
				}
				if pr.tweak != nil {
					pr.tweak(&cfg)
				}
				net := topo.Star(hosts, cfg)
				env := transport.NewEnv(net)
				env.RTOMin = 500 * sim.Microsecond
				if sc.rtoMin != 0 {
					env.RTOMin = sc.rtoMin
				}
				env.SendBuf = pr.sendBuf
				flows := sc.flows(cfg, hosts)
				sum := transport.Run(env, pr.make(), flows, transport.RunConfig{MaxEvents: 80_000_000})
				if sum.Flows != len(flows) {
					t.Fatalf("completed %d/%d flows", sum.Flows, len(flows))
				}
				// Sanity: all FCTs positive and the efficiency
				// accounting is self-consistent.
				if sum.OverallAvg <= 0 {
					t.Fatalf("non-positive avg FCT %v", sum.OverallAvg)
				}
				if env.Eff.SentPayload < env.Eff.UsefulDelivered {
					t.Fatalf("delivered %d > sent %d", env.Eff.UsefulDelivered, env.Eff.SentPayload)
				}
			})
		}
	}
}

// TestLossInjectionActuallyDrops guards the failure-injection plumbing
// itself.
func TestLossInjectionActuallyDrops(t *testing.T) {
	cfg := baseConfig()
	cfg.LossProb = 0.05
	net := topo.Star(4, cfg)
	env := transport.NewEnv(net)
	env.RTOMin = 300 * sim.Microsecond
	flows := []transport.SimpleFlow{{ID: 1, Src: 0, Dst: 1, Size: 2_000_000, FirstCall: 2_000_000}}
	sum := transport.Run(env, dctcp.Proto{}, flows, transport.RunConfig{})
	if sum.Flows != 1 {
		t.Fatal("flow did not survive loss injection")
	}
	var rnd int64
	for _, p := range net.SwitchPorts() {
		rnd += p.Stats.RandomDrops
	}
	if rnd == 0 {
		t.Fatal("LossProb=0.05 never dropped")
	}
}

// TestLossInjectionDeterministic: identical seeds give identical drops.
func TestLossInjectionDeterministic(t *testing.T) {
	run := func() int64 {
		cfg := baseConfig()
		cfg.LossProb = 0.02
		net := topo.Star(4, cfg)
		env := transport.NewEnv(net)
		env.RTOMin = 300 * sim.Microsecond
		transport.Run(env, dctcp.Proto{}, []transport.SimpleFlow{
			{ID: 1, Src: 0, Dst: 1, Size: 1_000_000, FirstCall: 1_000_000},
		}, transport.RunConfig{})
		var rnd int64
		for _, p := range net.SwitchPorts() {
			rnd += p.Stats.RandomDrops
		}
		return rnd
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic loss: %d vs %d", a, b)
	}
}

// TestBlindWindowsFollowTheFabric checks the windows that are the
// fabric's BDP rather than a constant: Homa's and Aeolus's unscheduled
// RTTbytes and NDP's first window are sent in full, and HPCC (plain and
// with PPT's low loop) starts with a window of one BDP, which admits
// the whole segments that fit in it. It runs on two star fabrics whose
// BDPs differ. Each flow starts with the scheduler stopped, so no
// grant, pull or ACK can come back; settling the sender's NIC then
// counts every data byte the sender put on the wire on its own.
func TestBlindWindowsFollowTheFabric(t *testing.T) {
	want := map[string]func(bdp int64) int64{
		"homa":     func(bdp int64) int64 { return bdp },
		"aeolus":   func(bdp int64) int64 { return bdp },
		"ndp":      func(bdp int64) int64 { return bdp },
		"hpcc":     func(bdp int64) int64 { return bdp / netsim.MSS * netsim.MSS },
		"hpcc+ppt": func(bdp int64) int64 { return bdp / netsim.MSS * netsim.MSS },
	}
	bdps := map[int64]bool{}
	for _, delay := range []sim.Time{5 * sim.Microsecond, 20 * sim.Microsecond} {
		for _, pr := range allProtocols() {
			sent, ok := want[pr.name]
			if !ok {
				continue
			}
			cfg := baseConfig()
			cfg.LinkDelay = delay
			if pr.tweak != nil {
				pr.tweak(&cfg)
			}
			net := topo.Star(2, cfg)
			env := transport.NewEnv(net)
			bdp := int64(env.BDP())
			bdps[bdp] = true
			f := &transport.Flow{ID: 1, Src: net.Hosts[0], Dst: net.Hosts[1], Size: 4 * bdp, FirstCall: 4 * bdp}
			p := pr.make()
			p.StartReceiver(env, f)
			p.StartSender(env, f)
			nic := net.Hosts[0].NIC()
			nic.SettleTx(sim.MaxTime)
			if got := nic.Stats.TxDataBytes; got != sent(bdp) {
				t.Errorf("%s, BDP %d: sent %d bytes before any reply, want %d", pr.name, bdp, got, sent(bdp))
			}
		}
	}
	if len(bdps) != 2 {
		t.Fatalf("fabrics share a BDP: %v", bdps)
	}
}

// TestWindowSendersResendOncePerRTO: with no receiver bound, no ACK ever
// returns, so every RTO must rewind to the cumulative ACK and resend one
// packet, whatever law moves the window. The NIC starts the initial
// window and then exactly one packet per expiry; a timer armed twice per
// expiry doubles the resends.
func TestWindowSendersResendOncePerRTO(t *testing.T) {
	const rtos = 10
	windowSenders := map[string]bool{"dctcp": true, "swift": true, "swift+ppt": true, "hpcc": true, "hpcc+ppt": true}
	for _, pr := range allProtocols() {
		if !windowSenders[pr.name] {
			continue
		}
		t.Run(pr.name, func(t *testing.T) {
			cfg := baseConfig()
			if pr.tweak != nil {
				pr.tweak(&cfg)
			}
			env := transport.NewEnv(topo.Star(2, cfg))
			f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1],
				Size: 10_000_000, FirstCall: 10_000_000}
			pr.make().StartSender(env, f)
			nic := f.Src.NIC()
			initial := nic.Stats.RxPackets
			env.Sched().RunUntil(rtos*env.RTO() + env.RTO()/2)
			if got, want := nic.Stats.RxPackets, initial+rtos; got != want {
				t.Fatalf("NIC started %d packets in %d RTOs, want the initial window's %d plus one per RTO: %d",
					got, rtos, initial, want)
			}
		})
	}
}

// oracleProtocols are the two passes of the §2.3 oracle, which take a
// recorded window per flow and so join only the single-flow checks.
func oracleProtocols() []proto {
	return []proto{
		{name: "mw-recorder", make: func() transport.Protocol { return pptproto.NewMWRecorder() }},
		{name: "oracle", make: func() transport.Protocol { return pptproto.Oracle{MW: map[uint32]float64{1: 200_000}} }},
	}
}

// TestNoTimerOutlivesItsFlow: once a flow completes, Env.Complete has
// recycled both of its endpoints, and no timer either of them armed may
// still be pending — the RTO, a hosted loop's pace and dead timers, the
// oracle's tick, the receiver's quiet flush. A late fire reaches a flow
// that is gone or, for a pooled struct, one a later flow owns. The flow
// is sized so that the low loop of ppt, swift+ppt and hpcc+ppt still
// holds a timer when the last byte lands.
func TestNoTimerOutlivesItsFlow(t *testing.T) {
	const size = 70_000
	window := map[string]bool{"dctcp": true, "tcp10": true, "pias": true, "ppt": true, "rc3": true,
		"swift": true, "swift+ppt": true, "hpcc": true, "hpcc+ppt": true, "mw-recorder": true, "oracle": true}
	loops := map[string]bool{"ppt": true, "swift+ppt": true, "hpcc+ppt": true}
	for _, pr := range append(allProtocols(), oracleProtocols()...) {
		if !window[pr.name] {
			continue
		}
		t.Run(pr.name, func(t *testing.T) {
			cfg := baseConfig()
			if pr.tweak != nil {
				pr.tweak(&cfg)
			}
			env := transport.NewEnv(topo.Star(2, cfg))
			rec := &recorder{Protocol: pr.make()}
			sum := transport.Run(env, rec, []transport.SimpleFlow{{ID: 1, Src: 0, Dst: 1, Size: size, FirstCall: size}},
				transport.RunConfig{})
			if sum.Flows != 1 {
				t.Fatal("the flow did not complete")
			}
			if loops[pr.name] && !slices.ContainsFunc(rec.last, func(s string) bool { return strings.HasPrefix(s, "lowloop.Loop.") }) {
				t.Fatalf("no loop timer armed as the last packet arrived (armed: %v), so the flow does not test the loop", rec.last)
			}
			if armed := armedTimers(rec.snd, rec.rcv); len(armed) > 0 {
				t.Errorf("armed after completion: %v", armed)
			}
		})
	}
}

// TestNoEventOutlivesItsFlow counts what the struct walk of
// TestNoTimerOutlivesItsFlow cannot see: a callback no field holds. Once
// a lone flow completes, the scheduler runs a further half RTO, so the
// wire drains and no RTO armed before completion is yet due; then no
// event may be queued. A timer that fires inside that half RTO escapes
// the count, which is why the walk stays.
func TestNoEventOutlivesItsFlow(t *testing.T) {
	for _, size := range []int64{70_000, 400_000} {
		for _, pr := range append(allProtocols(), oracleProtocols()...) {
			t.Run(fmt.Sprintf("%s/%d", pr.name, size), func(t *testing.T) {
				cfg := baseConfig()
				if pr.tweak != nil {
					pr.tweak(&cfg)
				}
				env := transport.NewEnv(topo.Star(2, cfg))
				env.SendBuf = pr.sendBuf
				sum := transport.Run(env, pr.make(), []transport.SimpleFlow{{ID: 1, Src: 0, Dst: 1, Size: size, FirstCall: size}},
					transport.RunConfig{})
				if sum.Flows != 1 {
					t.Fatal("the flow did not complete")
				}
				sched := env.Sched()
				sched.RunUntil(sched.Now() + env.RTO()/2)
				if n := sched.Pending(); n != 0 {
					t.Errorf("%d events still queued half an RTO after the flow completed", n)
				}
			})
		}
	}
}

// TestEveryTransportRecyclesItsFlows: a completed flow's struct returns
// to the run's freelist, so the next arrival starts on it, under every
// transport. That is safe because Recycle stops every timer that could
// reach the old flow (TestNoTimerOutlivesItsFlow) and no endpoint reads
// a flow after its completion.
func TestEveryTransportRecyclesItsFlows(t *testing.T) {
	const size = 70_000
	for _, pr := range append(allProtocols(), oracleProtocols()...) {
		t.Run(pr.name, func(t *testing.T) {
			cfg := baseConfig()
			if pr.tweak != nil {
				pr.tweak(&cfg)
			}
			env := transport.NewEnv(topo.Star(2, cfg))
			env.SendBuf = pr.sendBuf
			rec := &flowRecorder{Protocol: pr.make()}
			sum := transport.Run(env, rec, []transport.SimpleFlow{
				{ID: 1, Src: 0, Dst: 1, Size: size, FirstCall: size},
				{ID: 2, Src: 0, Dst: 1, Size: size, FirstCall: size, Arrive: 10 * sim.Millisecond},
			}, transport.RunConfig{})
			if sum.Flows != 2 {
				t.Fatalf("completed %d/2 flows", sum.Flows)
			}
			if rec.flows[0] != rec.flows[1] {
				t.Error("the second flow started on a fresh Flow: the first one's was not recycled")
			}
		})
	}
}

// flowRecorder runs a protocol and keeps the Flow each sender starts on.
type flowRecorder struct {
	transport.Protocol
	flows []*transport.Flow
}

func (r *flowRecorder) StartSender(env *transport.Env, f *transport.Flow) {
	r.flows = append(r.flows, f)
	r.Protocol.StartSender(env, f)
}

// recorder runs a protocol and keeps its one flow's endpoints. It taps
// the receiver to note the timers armed just before each data packet is
// handled; the last note is the one taken as the flow completed.
type recorder struct {
	transport.Protocol
	snd, rcv netsim.Endpoint
	last     []string
}

func (r *recorder) StartReceiver(env *transport.Env, f *transport.Flow) {
	r.Protocol.StartReceiver(env, f)
	r.rcv = f.Dst.Unbind(f.ID, true)
	f.Dst.Bind(f.ID, true, tap{r})
}

func (r *recorder) StartSender(env *transport.Env, f *transport.Flow) {
	r.Protocol.StartSender(env, f)
	r.snd = f.Src.Unbind(f.ID, false)
	f.Src.Bind(f.ID, false, r.snd)
}

// tap is the recorder's stand-in for the receiver.
type tap struct{ r *recorder }

func (t tap) Handle(pkt *netsim.Packet) {
	if pkt.Kind == netsim.Data {
		t.r.last = armedTimers(t.r.snd, t.r.rcv)
	}
	t.r.rcv.Handle(pkt)
}

func (t tap) Recycle(env *transport.Env) {
	if rc, ok := t.r.rcv.(transport.EndpointRecycler); ok {
		rc.Recycle(env)
	}
}

// armedTimers names, as "Type.field", every pending sim.Timer in the
// endpoints: in their structs, the structs embedded in them, and the
// protocol-package structs they point to (a hosted loop, an embedded
// window sender). Timers are unexported fields, so the walk reads them
// through their addresses.
func armedTimers(eps ...netsim.Endpoint) []string {
	var armed []string
	type node struct {
		addr uintptr
		typ  reflect.Type
	}
	seen := map[node]bool{}
	timer := reflect.TypeOf(sim.Timer{})
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			el := v.Type().Elem()
			if !v.IsNil() && el.Kind() == reflect.Struct && strings.HasPrefix(el.PkgPath(), "ppt/internal/transport/") {
				walk(v.Elem())
			}
		case reflect.Struct:
			// A hosted loop is both a field of its host and the target of
			// the host's loop pointer.
			n := node{v.Addr().Pointer(), v.Type()}
			if seen[n] {
				return
			}
			seen[n] = true
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				if f.Type() != timer {
					walk(f)
				} else if (*sim.Timer)(f.Addr().UnsafePointer()).Pending() {
					armed = append(armed, v.Type().String()+"."+v.Type().Field(i).Name)
				}
			}
		}
	}
	for _, ep := range eps {
		walk(reflect.ValueOf(ep))
	}
	return armed
}
