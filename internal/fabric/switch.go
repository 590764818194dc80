package fabric

import (
	"fmt"

	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
)

// Switch models a shared-buffer, output-queued Ethernet switch: every port
// owns an egress Link (so the existing ETS/DWRR scheduler, serialization
// model, fault injection and trace events apply per output port unchanged),
// packets forward by destination address through a flat table, the output
// queues draw on one shared buffer pool with per-TC occupancy thresholds,
// and priority flow control propagates pause frames back to the upstream
// links feeding the switch.
//
// PFC here is deliberately coarse — when any egress port's backlog for a
// class crosses XOFF, *every* upstream port is paused for that class until
// the backlog drains below XON. That is the congestion-spreading behaviour
// real shared-buffer switches exhibit under PRIO pause (and the mechanism
// NeVerMore exploits for cross-tenant interference): one hot output port
// stalls innocent flows that merely share a priority with it.
//
// Backlog-driven pauses cannot deadlock an acyclic topology: egress links
// are only paused by PortPause (never by the XOFF logic), so XOFF'd queues
// always drain and release. PortPause models the one way a malicious *end
// host* can pause an egress link — forged PRIO pause frames sent to its own
// switch port. That path would deadlock trivially (pause with an empty
// queue → nothing ever drains → no XON) if pauses were level-triggered, so,
// exactly like real 802.1Qbb, every pause carries a quantum and expires on
// its own: liveness never depends on the attacker's cooperation.
//
// The forwarding hot path is allocation-free in steady state (ring-buffer
// pending queue, pre-bound timer callback, slice forwarding table); the
// bench-guard CI job gates BenchmarkSwitchForward at 0 allocs/op alongside
// the Link and engine paths.

// SwitchConfig parameterises a switch.
type SwitchConfig struct {
	Name string
	// FwdDelay is the fixed ingress→egress forwarding latency (lookup +
	// crossbar). Zero forwards synchronously.
	FwdDelay sim.Duration
	// SharedBufBytes bounds the shared output-buffer pool (bytes queued
	// across all egress ports, including packets in the forwarding pipe).
	// 0 means unbounded.
	SharedBufBytes int
	// TCShare caps one traffic class's share of the pool (fraction of
	// SharedBufBytes; 0 means 1.0 — no per-class cap). This is the static
	// per-TC threshold real shared-buffer switches use to stop one class
	// from starving the rest of the pool.
	TCShare [NumTCs]float64
	// XOffBytes, when positive, enables PFC: an egress port whose per-TC
	// backlog reaches XOFF pauses that class on every upstream link.
	XOffBytes int
	// XOnBytes releases the pause once the backlog drains to it (default
	// XOffBytes/2).
	XOnBytes int
	// PauseQuanta bounds how long one PortPause call (a received PRIO
	// pause frame) stops a port's egress. Defaults to DefaultPauseQuanta.
	PauseQuanta sim.Duration
}

// DefaultPauseQuanta is the longest pause one 802.1Qbb frame can request:
// 65535 quanta of 512 bit-times, ≈335µs at 100Gbps. An attacker sustaining
// a pause must keep refreshing frames, which is exactly what the pause-abuse
// duty-cycle knob in the exhaust experiment models.
const DefaultPauseQuanta = 335 * sim.Microsecond

// swPort is one switch port: an egress Link toward the attached device plus
// the upstream link feeding the switch from that device (the PFC pause
// target).
type swPort struct {
	name     string
	egress   *Link
	upstream *Link
	queuedTC [NumTCs]int // bytes backlogged at this port's egress, per TC
	pausedTC [NumTCs]bool
	// Pause frames received *from* the attached device (PortPause): while
	// set, this port's egress link is paused for the class. Each class holds
	// at most one armed expiry event; a refreshing frame cancels and
	// re-arms it, so no stale expiry callbacks linger in the queue after a
	// run (Engine.DrainCheck audits exactly that).
	rxPaused  [NumTCs]bool
	rxPauseEv [NumTCs]sim.Event
	rxExpire  [NumTCs]func() // pre-bound expiry callbacks, built lazily
	// relay, when set, replaces the direct upstream.PauseTC/ResumeTC call
	// for this port's PFC propagation. Trunk ports use it to model the
	// pause frame's flight time to the peer switch.
	relay func(tc int, pause bool)
}

// swPending is one packet in the forwarding pipeline (FwdDelay latency).
type swPending struct {
	due sim.Time
	out int32
	pkt Packet
}

// Switch is the device. Build with NewSwitch, attach devices with AddPort +
// SetUpstream (or verbs.Network.AttachToSwitch, which does both), install
// forwarding entries with Route, then feed packets through Ingress — the
// natural sink for upstream links.
type Switch struct {
	eng *sim.Engine
	cfg SwitchConfig

	ports []*swPort
	table []int32 // destination address -> port (-1 = unroutable, -2 = ECMP group)
	// ecmp holds the port groups behind ecmpEntry table slots. Egress choice
	// hashes the packet's flow label, so one flow sticks to one path.
	ecmp map[uint32][]int32

	// Shared-buffer occupancy: admission-counted at Ingress, released when
	// the packet leaves its egress queue for the wire (Link dequeue hook) or
	// is dropped.
	bufUsed   int
	bufUsedTC [NumTCs]int

	// Forwarding pipeline: a reusable ring ordered by due time (FwdDelay is
	// constant, so FIFO == time order). deliverFn is pre-bound once.
	pendQ      []swPending
	pendHead   int
	timerArmed bool
	deliverFn  func()

	// PFC pause reference counts per TC: >0 while any port holds the class
	// above XOFF; upstream links pause on 0→1 and resume on 1→0.
	pauseRef [NumTCs]int

	// Counters.
	fwdPackets uint64
	fwdBytes   uint64
	unroutable uint64
	bufDrops   [NumTCs]uint64
	pfcPauses  [NumTCs]uint64
	rxPauses   [NumTCs]uint64 // pause frames received from attached devices

	rec      *trace.Recorder
	recActor uint16
}

// NewSwitch creates a switch with no ports.
func NewSwitch(eng *sim.Engine, cfg SwitchConfig) *Switch {
	if cfg.Name == "" {
		cfg.Name = "switch"
	}
	if cfg.XOffBytes > 0 && cfg.XOnBytes <= 0 {
		cfg.XOnBytes = cfg.XOffBytes / 2
	}
	if cfg.PauseQuanta <= 0 {
		cfg.PauseQuanta = DefaultPauseQuanta
	}
	s := &Switch{eng: eng, cfg: cfg}
	s.deliverFn = s.deliverDue
	return s
}

// Name returns the switch's wiring name.
func (s *Switch) Name() string { return s.cfg.Name }

// NumPorts reports the attached port count.
func (s *Switch) NumPorts() int { return len(s.ports) }

// AddPort attaches a device behind a new egress link clocking at rateGbps
// with the given propagation delay and QoS; sink receives delivered packets
// (nic.Deliver for a NIC, another switch's Ingress for a trunk). It returns
// the port index.
func (s *Switch) AddPort(name string, rateGbps float64, prop sim.Duration, maxQueue int, qos QoSConfig, sink func(Packet)) int {
	idx := len(s.ports)
	eg := NewLink(s.eng, s.cfg.Name+":"+name, rateGbps, prop, maxQueue, sink)
	eg.SetQoS(qos)
	p := &swPort{name: name, egress: eg}
	eg.SetOnDequeue(func(tc, bytes int) { s.release(idx, tc, bytes) })
	s.ports = append(s.ports, p)
	return idx
}

// SetUpstream registers the link feeding the switch from the device on the
// given port — the target PFC pause frames are sent to.
func (s *Switch) SetUpstream(port int, l *Link) { s.ports[port].upstream = l }

// SetPauseRelay replaces the port's direct upstream PauseTC/ResumeTC call
// with relay (nil restores the direct call). Wiring time only. The lab
// builder installs relays on trunk ports so a pause frame reaches the peer
// switch one trunk propagation delay after it is emitted, as on a real
// cable, instead of instantly.
func (s *Switch) SetPauseRelay(port int, relay func(tc int, pause bool)) {
	s.ports[port].relay = relay
}

// EgressLink exposes a port's egress link (fault plans, counters, QoS).
func (s *Switch) EgressLink(port int) *Link { return s.ports[port].egress }

// Links returns every port egress link in port order.
func (s *Switch) Links() []*Link {
	out := make([]*Link, len(s.ports))
	for i, p := range s.ports {
		out[i] = p.egress
	}
	return out
}

// Route installs a forwarding entry: packets addressed to addr leave through
// port. Later entries overwrite earlier ones.
func (s *Switch) Route(addr uint32, port int) {
	for int(addr) >= len(s.table) {
		s.table = append(s.table, -1)
	}
	s.table[addr] = int32(port)
}

// ecmpEntry marks a table slot whose egress is a hashed port group.
const ecmpEntry int32 = -2

// RouteECMP installs a multipath forwarding entry: packets addressed to
// addr leave through one of ports, picked by a deterministic hash of the
// packet's flow label. Equal-cost multipath at flow granularity — packets
// of one flow never reorder across paths. A single-port group degrades to
// a plain Route entry.
func (s *Switch) RouteECMP(addr uint32, ports []int) {
	if len(ports) == 0 {
		panic(fmt.Sprintf("fabric %s: empty ECMP group for addr %d", s.cfg.Name, addr))
	}
	if len(ports) == 1 {
		s.Route(addr, ports[0])
		return
	}
	for int(addr) >= len(s.table) {
		s.table = append(s.table, -1)
	}
	s.table[addr] = ecmpEntry
	if s.ecmp == nil {
		s.ecmp = make(map[uint32][]int32)
	}
	group := make([]int32, len(ports))
	for i, p := range ports {
		group[i] = int32(p)
	}
	s.ecmp[addr] = group
}

// flowHash mixes the flow label and destination into an ECMP pick. The
// avalanche (splitmix-style) matters: flow labels are often near-sequential
// QPN pairs, and a weak hash would pile every flow onto one uplink.
func flowHash(flow, dst uint32) uint32 {
	x := flow ^ dst*0x9E3779B9
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// SetRecorder attaches a flight recorder: the switch registers one actor for
// its forwarding plane (PFC pause/resume and buffer-drop events) and one per
// egress link (the usual TC enqueue/dequeue/serialization events). Nil
// disables tracing.
func (s *Switch) SetRecorder(r *trace.Recorder) {
	s.rec = r
	s.recActor = r.RegisterActor(s.cfg.Name + "/fwd")
	for _, p := range s.ports {
		p.egress.SetRecorder(r)
	}
}

// Ingress accepts one packet from an upstream link — install it as the
// link's sink. The packet is admission-checked against the shared buffer,
// forwarded after FwdDelay, and enqueued at the output port the forwarding
// table names for its destination address.
func (s *Switch) Ingress(p Packet) {
	out := int32(-1)
	if int(p.Dst) < len(s.table) {
		out = s.table[p.Dst]
		if out == ecmpEntry {
			group := s.ecmp[p.Dst]
			out = group[flowHash(p.Flow, p.Dst)%uint32(len(group))]
		}
	}
	if out < 0 {
		s.unroutable++
		s.rec.Emit(trace.Event{At: int64(s.eng.Now()), Kind: trace.KindTailDrop,
			Actor: s.recActor, TC: int8(p.TC & 7), Val: uint64(p.Bytes), Aux: uint64(p.Dst)})
		return
	}
	// Shared-buffer admission: pool exhaustion or the class's threshold
	// tail-drops the packet before it occupies anything.
	if s.cfg.SharedBufBytes > 0 {
		limit := s.cfg.SharedBufBytes
		if sh := s.cfg.TCShare[p.TC]; sh > 0 {
			limit = int(sh * float64(s.cfg.SharedBufBytes))
		}
		if s.bufUsed+p.Bytes > s.cfg.SharedBufBytes || s.bufUsedTC[p.TC]+p.Bytes > limit {
			s.bufDrops[p.TC]++
			s.rec.Emit(trace.Event{At: int64(s.eng.Now()), Kind: trace.KindTailDrop,
				Actor: s.recActor, TC: int8(p.TC & 7), Val: uint64(p.Bytes)})
			return
		}
	}
	s.bufUsed += p.Bytes
	s.bufUsedTC[p.TC] += p.Bytes
	s.fwdPackets++
	s.fwdBytes += uint64(p.Bytes)
	if s.cfg.FwdDelay <= 0 {
		s.enqueue(int(out), p)
		return
	}
	s.pendPush(swPending{due: s.eng.Now().Add(s.cfg.FwdDelay), out: out, pkt: p})
	if !s.timerArmed {
		s.timerArmed = true
		s.eng.At(s.pendQ[s.pendHead].due, s.deliverFn)
	}
}

// pendPush appends to the forwarding ring, rewinding or compacting the
// backing slice when the consumed prefix dominates (same discipline as the
// Link TC rings — steady traffic reuses one backing array).
func (s *Switch) pendPush(e swPending) {
	q := s.pendQ
	if h := s.pendHead; h > 0 {
		if h == len(q) {
			q = q[:0]
			s.pendHead = 0
		} else if h >= 64 && h*2 >= len(q) {
			n := copy(q, q[h:])
			q = q[:n]
			s.pendHead = 0
		}
	}
	s.pendQ = append(q, e)
}

// deliverDue moves every due packet from the forwarding pipe to its egress
// port, then re-arms for the next pending entry.
func (s *Switch) deliverDue() {
	now := s.eng.Now()
	for s.pendHead < len(s.pendQ) && s.pendQ[s.pendHead].due <= now {
		e := s.pendQ[s.pendHead]
		s.pendQ[s.pendHead] = swPending{}
		s.pendHead++
		if s.pendHead == len(s.pendQ) {
			s.pendQ = s.pendQ[:0]
			s.pendHead = 0
		}
		s.enqueue(int(e.out), e.pkt)
	}
	if s.pendHead < len(s.pendQ) {
		s.eng.At(s.pendQ[s.pendHead].due, s.deliverFn)
		return
	}
	s.timerArmed = false
}

// enqueue hands a forwarded packet to its output port's egress link and runs
// the PFC XOFF check.
func (s *Switch) enqueue(port int, pkt Packet) {
	p := s.ports[port]
	if err := p.egress.Send(pkt); err != nil {
		// Egress queue bound (per-port maxQueue) tail-dropped it: the link
		// counted the drop; release the shared-buffer reservation.
		s.bufUsed -= pkt.Bytes
		s.bufUsedTC[pkt.TC] -= pkt.Bytes
		return
	}
	p.queuedTC[pkt.TC] += pkt.Bytes
	if s.cfg.XOffBytes > 0 && !p.pausedTC[pkt.TC] && p.queuedTC[pkt.TC] >= s.cfg.XOffBytes {
		p.pausedTC[pkt.TC] = true
		s.pfcPauses[pkt.TC]++
		s.pauseRef[pkt.TC]++
		s.rec.Emit(trace.Event{At: int64(s.eng.Now()), Kind: trace.KindPFCPause,
			Actor: s.recActor, TC: int8(pkt.TC & 7), Val: uint64(p.queuedTC[pkt.TC]), Aux: 1})
		if s.pauseRef[pkt.TC] == 1 {
			for _, up := range s.ports {
				if up.relay != nil {
					up.relay(pkt.TC, true)
				} else if up.upstream != nil {
					up.upstream.PauseTC(pkt.TC)
				}
			}
		}
	}
}

// release returns buffer occupancy as a packet leaves an egress queue for
// the wire, and runs the PFC XON check.
func (s *Switch) release(port, tc, bytes int) {
	s.bufUsed -= bytes
	s.bufUsedTC[tc] -= bytes
	p := s.ports[port]
	p.queuedTC[tc] -= bytes
	if p.pausedTC[tc] && p.queuedTC[tc] <= s.cfg.XOnBytes {
		p.pausedTC[tc] = false
		s.pauseRef[tc]--
		s.rec.Emit(trace.Event{At: int64(s.eng.Now()), Kind: trace.KindPFCPause,
			Actor: s.recActor, TC: int8(tc & 7), Val: uint64(p.queuedTC[tc]), Aux: 0})
		if s.pauseRef[tc] == 0 {
			for _, up := range s.ports {
				if up.relay != nil {
					up.relay(tc, false)
				} else if up.upstream != nil {
					up.upstream.ResumeTC(tc)
				}
			}
		}
	}
}

// PortPause models the switch receiving a PRIO pause frame for tc from the
// device attached at port: the port's egress link stops transmitting that
// class. The pause expires after PauseQuanta unless refreshed — a malicious
// host can therefore stall the port only while actively spraying frames,
// never forever. While paused, backlog accumulating at this port can cross
// XOFF and pause every *upstream* port through the usual refcount plumbing:
// that is the congestion-tree amplification a pause-abuse aggressor buys.
func (s *Switch) PortPause(port, tc int) {
	p := s.ports[port]
	s.rxPauses[tc]++
	end := s.eng.Now().Add(s.cfg.PauseQuanta)
	// One armed expiry per (port, TC): a refreshing frame cancels the
	// previous event instead of stacking a stale no-op behind it. The old
	// schedule-per-frame scheme left every superseded expiry pending until
	// its timestamp passed, so Engine.Pending was nonzero long after a run
	// quiesced — an event leak Engine.DrainCheck flags.
	p.rxPauseEv[tc].Cancel()
	if p.rxExpire[tc] == nil {
		port, tc := port, tc
		p.rxExpire[tc] = func() { s.PortResume(port, tc) }
	}
	p.rxPauseEv[tc] = s.eng.At(end, p.rxExpire[tc])
	if !p.rxPaused[tc] {
		p.rxPaused[tc] = true
		p.egress.PauseTC(tc)
		s.rec.Emit(trace.Event{At: int64(s.eng.Now()), Kind: trace.KindPFCPause,
			Actor: s.recActor, TC: int8(tc & 7), Val: uint64(port), Aux: 1})
	}
}

// PortResume models the pause clearing (a zero-quanta frame, or quanta
// expiry): the port's egress link resumes the class and drains. Any armed
// expiry is cancelled (cancelling the event that just fired is a no-op).
func (s *Switch) PortResume(port, tc int) {
	p := s.ports[port]
	if !p.rxPaused[tc] {
		return
	}
	p.rxPauseEv[tc].Cancel()
	p.rxPauseEv[tc] = sim.Event{}
	p.rxPaused[tc] = false
	p.egress.ResumeTC(tc)
	s.rec.Emit(trace.Event{At: int64(s.eng.Now()), Kind: trace.KindPFCPause,
		Actor: s.recActor, TC: int8(tc & 7), Val: uint64(port), Aux: 0})
}

// RxPauses reports pause frames received from attached devices for one TC.
func (s *Switch) RxPauses(tc int) uint64 { return s.rxPauses[tc] }

// PortPaused reports whether a received pause currently stops port's egress
// for tc.
func (s *Switch) PortPaused(port, tc int) bool { return s.ports[port].rxPaused[tc] }

// FwdPackets reports packets admitted into the forwarding pipeline.
func (s *Switch) FwdPackets() uint64 { return s.fwdPackets }

// FwdBytes reports bytes admitted into the forwarding pipeline.
func (s *Switch) FwdBytes() uint64 { return s.fwdBytes }

// Unroutable reports packets dropped for lack of a forwarding entry.
func (s *Switch) Unroutable() uint64 { return s.unroutable }

// BufDrops reports shared-buffer admission drops for one TC.
func (s *Switch) BufDrops(tc int) uint64 { return s.bufDrops[tc] }

// PFCPauses reports pause assertions for one TC.
func (s *Switch) PFCPauses(tc int) uint64 { return s.pfcPauses[tc] }

// BufUsed reports current shared-buffer occupancy in bytes.
func (s *Switch) BufUsed() int { return s.bufUsed }

// PortBacklog reports one port's egress backlog for one TC, in bytes.
func (s *Switch) PortBacklog(port, tc int) int { return s.ports[port].queuedTC[tc] }

// String aids debugging.
func (s *Switch) String() string {
	return fmt.Sprintf("switch %s: %d ports, %d fwd, %d unroutable, buf %d",
		s.cfg.Name, len(s.ports), s.fwdPackets, s.unroutable, s.bufUsed)
}
