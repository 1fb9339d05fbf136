package dctcp

import (
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/transport"
	"ppt/internal/transport/lowloop"
)

// TestPooledSenderResetNoStaleState: window state, skip ranges,
// callbacks, a replaced law and a hosted loop from the previous flow
// must be gone.
func TestPooledSenderResetNoStaleState(t *testing.T) {
	env := newEnv()
	f1 := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 100_000}
	s1 := GetSender(env, f1, Config{})
	s1.Cwnd = 123_456
	s1.SndNxt = 60_000
	s1.Skip.Add(10_000, 20_000)
	s1.OnAlpha = func(float64) {}
	s1.Law = nopLaw{}
	s1.Low = &lowloop.Loop{}
	s1.Recycle(env)

	f2 := &transport.Flow{ID: 2, Src: env.Net.Hosts[2], Dst: env.Net.Hosts[3], Size: 40_000}
	s2 := GetSender(env, f2, Config{})
	if s2 != s1 {
		t.Fatal("pool did not recycle the sender")
	}
	if s2.Cwnd != InitCwnd || s2.SndNxt != 0 || s2.SndUna != 0 {
		t.Fatalf("stale window state: cwnd=%v sndnxt=%d snduna=%d", s2.Cwnd, s2.SndNxt, s2.SndUna)
	}
	if s2.Skip.Total() != 0 {
		t.Fatalf("stale skip ranges: %d bytes", s2.Skip.Total())
	}
	if s2.OnAlpha != nil {
		t.Fatal("stale α hook survived Init")
	}
	if s2.Law != Law((*alphaLaw)(s2)) {
		t.Fatalf("Init left law %T, want DCTCP's", s2.Law)
	}
	if s2.Low != nil {
		t.Fatal("stale hosted loop survived Init")
	}
	if s2.F != f2 {
		t.Fatal("sender still points at the old flow")
	}
}

type nopLaw struct{}

func (nopLaw) Ack(*netsim.Packet, int64) {}
func (nopLaw) Loss(bool)                 {}

// TestConstructorEndpointsNotPooled: senders built with the public
// constructor are caller-owned (tests, the MW oracle, embedding
// transports may retain them past completion); Recycle must leave them
// alone rather than feeding them to the pool.
func TestConstructorEndpointsNotPooled(t *testing.T) {
	env := newEnv()
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 100_000}
	s := NewSender(env, f, Config{})
	s.Recycle(env)
	if got := GetSender(env, f, Config{}); got == s {
		t.Fatal("constructor-built sender leaked into the pool")
	}
	// Recycle on a caller-owned struct must still be non-destructive: the
	// flow pointer survives for the retaining caller.
	if s.F == nil {
		t.Fatal("Recycle scrubbed a caller-owned sender")
	}
}
