package fabric

import (
	"testing"

	"github.com/thu-has/ragnar/internal/sim"
)

// TestRouteECMPFlowStickiness: every packet of one flow takes one egress;
// different flows spread across the group.
func TestRouteECMPFlowStickiness(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, SwitchConfig{Name: "ecmp"})
	var got [3][]uint32
	ports := make([]int, 3)
	for i := range ports {
		i := i
		ports[i] = sw.AddPort("up", 100, 100*sim.Nanosecond, 0, DefaultQoS(),
			func(p Packet) { got[i] = append(got[i], p.Flow) })
	}
	sw.RouteECMP(7, ports)

	const flows = 64
	for round := 0; round < 4; round++ {
		for f := uint32(0); f < flows; f++ {
			sw.Ingress(Packet{TC: 0, Bytes: 256, Dst: 7, Flow: f})
		}
	}
	e.Run()

	seen := map[uint32]int{}
	total := 0
	for port, fls := range got {
		if len(fls) == 0 {
			t.Errorf("ECMP left port %d completely idle across %d flows", port, flows)
		}
		total += len(fls)
		for _, f := range fls {
			if prev, ok := seen[f]; ok && prev != port {
				t.Fatalf("flow %d crossed ports %d and %d — per-packet spraying reorders", f, prev, port)
			}
			seen[f] = port
		}
	}
	if total != 4*flows {
		t.Fatalf("delivered %d packets, want %d", total, 4*flows)
	}
}

// TestRouteECMPSinglePortDegrades pins that a one-port group is a plain
// table entry (no map lookup on the forwarding path).
func TestRouteECMPSinglePortDegrades(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, SwitchConfig{Name: "ecmp1"})
	n := 0
	p0 := sw.AddPort("only", 100, sim.Nanosecond, 0, DefaultQoS(), func(Packet) { n++ })
	sw.RouteECMP(3, []int{p0})
	sw.Ingress(Packet{TC: 0, Bytes: 64, Dst: 3, Flow: 9})
	e.Run()
	if n != 1 || sw.ecmp != nil {
		t.Fatalf("single-port group: delivered=%d ecmp=%v, want 1 and nil", n, sw.ecmp)
	}
}

// TestSetPauseRelayReplacesUpstreamCall: a port with a relay must not touch
// its upstream link directly; ports without one keep the synchronous call.
func TestSetPauseRelayReplacesUpstreamCall(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, SwitchConfig{
		Name:           "relay",
		SharedBufBytes: 1 << 20,
		XOffBytes:      2048,
		XOnBytes:       1024,
	})
	// Slow egress so backlog crosses XOFF.
	out := sw.AddPort("hot", 1, 10*sim.Nanosecond, 0, DefaultQoS(), func(Packet) {})
	_ = out
	relayed := sw.AddPort("trunk", 100, 10*sim.Nanosecond, 0, DefaultQoS(), func(Packet) {})
	direct := sw.AddPort("host", 100, 10*sim.Nanosecond, 0, DefaultQoS(), func(Packet) {})

	trunkUp := NewLink(e, "trunk-up", 100, 10*sim.Nanosecond, 0, sw.Ingress)
	hostUp := NewLink(e, "host-up", 100, 10*sim.Nanosecond, 0, sw.Ingress)
	sw.SetUpstream(relayed, trunkUp)
	sw.SetUpstream(direct, hostUp)

	var relayLog []bool
	sw.SetPauseRelay(relayed, func(tc int, pause bool) { relayLog = append(relayLog, pause) })

	sw.Route(1, out)
	for i := 0; i < 8; i++ {
		sw.Ingress(Packet{TC: 0, Bytes: 1024, Dst: 1})
	}
	e.RunFor(5 * sim.Microsecond)

	if len(relayLog) == 0 || !relayLog[0] {
		t.Fatalf("relay never saw the pause assertion: %v", relayLog)
	}
	if trunkUp.PausedTC(0) {
		t.Fatal("relayed port's upstream was paused directly, bypassing the relay")
	}
	if !hostUp.PausedTC(0) && relayLog[len(relayLog)-1] {
		t.Fatal("direct port's upstream missed the synchronous pause")
	}
	e.Run()
	if last := relayLog[len(relayLog)-1]; last {
		t.Fatal("relay never saw the resume after the backlog drained")
	}
}

// TestPortPauseNoEventLeak is the satellite regression: refreshed pause
// frames must not leave stale expiry events pending after the run
// quiesces. Before the cancellable-event fix, every refresh stacked one
// no-op event at its old expiry time.
func TestPortPauseNoEventLeak(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, SwitchConfig{Name: "leak", PauseQuanta: 10 * sim.Microsecond})
	port := sw.AddPort("victim", 100, sim.Nanosecond, 0, DefaultQoS(), func(Packet) {})

	// 5 refreshes, 1µs apart: one pause window ending 10µs after the last.
	for i := 0; i < 5; i++ {
		at := sim.Time(int64(i) * int64(sim.Microsecond))
		e.At(at, func() { sw.PortPause(port, 3) })
	}
	e.RunUntil(sim.Time(2 * int64(sim.Microsecond)))
	if got := e.LivePending(); got != 3 {
		t.Fatalf("mid-run LivePending = %d, want 3 (2 future pause frames + 1 armed expiry)", got)
	}
	e.Run()
	if err := e.DrainCheck(); err != nil {
		t.Fatalf("stale pause expiries leaked: %v", err)
	}
	if sw.PortPaused(port, 3) {
		t.Fatal("pause never expired")
	}
	if got := sw.RxPauses(3); got != 5 {
		t.Fatalf("RxPauses = %d, want 5", got)
	}
}
