// Package fabric models the wire between RNICs: full-duplex links with a
// line rate, propagation delay, and an egress scheduler implementing ETS
// (Enhanced Transmission Selection, 802.1Qaz) across eight traffic classes —
// the same knobs mlnx_qos exposes on ConnectX adapters. The paper's Grain-I/II
// experiments configure two flows in ETS mode at 50 % bandwidth each and then
// observe that the NIC-internal arbiters, not the wire scheduler, produce the
// unbalanced outcomes; reproducing that requires a faithful wire-level ETS so
// the imbalance can be attributed to the NIC model.
package fabric

import (
	"fmt"
	"math/rand"

	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
)

// NumTCs is the number of 802.1p traffic classes.
const NumTCs = 8

// Packet is one unit on the wire. Payload is opaque to the fabric; the
// receiving NIC interprets it.
type Packet struct {
	TC    int // traffic class 0..7
	Bytes int // wire size including headers
	// Dst is the fabric-level destination address (assigned per NIC by
	// verbs.Network). Direct point-to-point links ignore it; switches use it
	// for forwarding-table lookups without interpreting the payload.
	Dst uint32
	// Flow is a stable flow label stamped by the sending NIC (derived from
	// the QP pair). Switches with ECMP port groups hash it to pick an egress,
	// so one flow always takes one path — flow-level multipath, never
	// per-packet spraying (which would reorder and trigger go-back-N).
	Flow    uint32
	Payload any
	// Corrupt marks a packet whose payload integrity was lost in flight
	// (FaultPlan corruption). The receiving NIC must treat it like an ICRC
	// failure: discard without interpreting the payload.
	Corrupt bool

	// enqueuedAt stamps when the packet joined its TC queue, feeding the
	// flight recorder's per-TC queueing-delay histogram. Tracing-only: it
	// never influences scheduling.
	enqueuedAt sim.Time
}

// FaultPlan describes deterministic, seed-driven wire impairment applied to a
// link on top of the tail-drop path: per-TC probabilistic drop, optional burst
// loss (one drop decision takes out BurstLen consecutive packets of that TC),
// and per-TC probabilistic corruption. The plan owns its own RNG stream,
// derived only from Seed — it never touches the engine's RNG, so a link with
// a nil or all-zero plan is event-for-event identical to an unimpaired link.
type FaultPlan struct {
	Seed        int64
	DropProb    [NumTCs]float64
	CorruptProb [NumTCs]float64
	BurstLen    int // packets lost per drop decision; 0 or 1 means single loss
}

// UniformLoss is a convenience FaultPlan dropping every TC with the same
// probability.
func UniformLoss(seed int64, prob float64) FaultPlan {
	p := FaultPlan{Seed: seed}
	for tc := range p.DropProb {
		p.DropProb[tc] = prob
	}
	return p
}

// SchedulerMode selects how a traffic class is served.
type SchedulerMode int

const (
	// ETS serves the class by deficit-weighted round robin using its weight.
	ETS SchedulerMode = iota
	// Strict serves the class ahead of all ETS classes (and ahead of
	// higher-numbered strict classes).
	Strict
)

// QoSConfig mirrors an mlnx_qos configuration: per-TC mode and ETS weight
// (percent, ETS classes should sum to 100 but the scheduler normalises).
type QoSConfig struct {
	Mode   [NumTCs]SchedulerMode
	Weight [NumTCs]int
}

// DefaultQoS gives every class ETS mode with equal weights.
func DefaultQoS() QoSConfig {
	var q QoSConfig
	for i := range q.Weight {
		q.Weight[i] = 100 / NumTCs
	}
	return q
}

// SplitQoS reproduces the paper's two-flow setup: tcA and tcB each get 50 %.
func SplitQoS(tcA, tcB int) QoSConfig {
	var q QoSConfig
	q.Weight[tcA] = 50
	q.Weight[tcB] = 50
	return q
}

// Link is one direction of a wire: packets enqueue per TC and drain at the
// line rate under the ETS scheduler, then arrive at the sink after the
// propagation delay.
type Link struct {
	eng       *sim.Engine
	name      string
	rateGbps  float64
	propDelay sim.Duration
	qos       QoSConfig
	// Per-TC FIFO as a reusable ring: qHead indexes the live front of the
	// backing slice. Popping advances qHead instead of reslicing ([1:]
	// permanently forfeits capacity, forcing an allocation per enqueue once
	// the queue has churned); the slice rewinds when drained and compacts
	// in place when mostly consumed, so steady traffic reuses one backing
	// array per class.
	queues  [NumTCs][]Packet
	qHead   [NumTCs]int
	deficit [NumTCs]int
	quantum [NumTCs]int
	busy    bool
	sink    func(Packet)
	// paused marks TCs held by priority flow control: a paused class keeps
	// accepting enqueues but is never picked for service until resumed.
	paused [NumTCs]bool
	// onDequeue, when set, fires as a packet leaves its TC queue for the
	// wire — the hook a switch uses to release shared-buffer occupancy. It is
	// installed once at wiring time (never per packet) to keep the serve path
	// allocation-free.
	onDequeue func(tc, bytes int)

	// Single-slot serialization state: exactly one packet clocks onto the
	// wire at a time (drain recurses only from txDone), so the completion
	// closure is allocated once per link instead of once per packet.
	inflight    Packet
	inflightSer sim.Duration
	txDone      func()

	// Propagation legs overlap across packets, but propDelay is constant, so
	// they complete in FIFO order: a reusable ring plus one pre-bound
	// callback replaces the per-packet closure this leg used to allocate.
	propQ    []Packet
	propHead int
	propDone func()

	// adv, when set, is an on-path adversary (NeVerMore threat model): its
	// Observe hook sees every frame that survives serialization and the fault
	// decision, and Link.Inject lets it splice forged or replayed frames onto
	// the wire. Nil on every benign link — the no-adversary fast path is a
	// single nil check (benchmark-guarded at 0 allocs/op).
	adv Adversary
	// injected counts frames spliced onto the wire by Inject, per TC.
	injected [NumTCs]uint64

	// Telemetry, per TC.
	txBytes   [NumTCs]uint64
	txPackets [NumTCs]uint64
	qDrops    [NumTCs]uint64
	maxQueue  int

	// Fault injection (nil plan = pristine wire).
	plan       *FaultPlan
	faultRNG   *rand.Rand
	burstLeft  [NumTCs]int
	faultDrops [NumTCs]uint64
	corrupts   [NumTCs]uint64

	rec      *trace.Recorder
	recActor uint16
}

// NewLink creates a link delivering packets to sink. maxQueue bounds each
// TC's queue; 0 means unbounded.
func NewLink(eng *sim.Engine, name string, rateGbps float64, prop sim.Duration, maxQueue int, sink func(Packet)) *Link {
	if rateGbps <= 0 {
		panic("fabric: line rate must be positive")
	}
	l := &Link{eng: eng, name: name, rateGbps: rateGbps, propDelay: prop, maxQueue: maxQueue, sink: sink}
	l.txDone = l.finishTx
	l.propDone = l.deliver
	l.SetQoS(DefaultQoS())
	return l
}

// qLen reports the live backlog of one TC ring.
func (l *Link) qLen(tc int) int { return len(l.queues[tc]) - l.qHead[tc] }

// qPush appends to a TC ring, rewinding or compacting the backing slice
// first when the consumed prefix dominates it.
func (l *Link) qPush(tc int, p Packet) {
	q := l.queues[tc]
	if h := l.qHead[tc]; h > 0 {
		if h == len(q) {
			q = q[:0]
			l.qHead[tc] = 0
		} else if h >= 64 && h*2 >= len(q) {
			n := copy(q, q[h:])
			q = q[:n]
			l.qHead[tc] = 0
		}
	}
	l.queues[tc] = append(q, p)
}

// qPop removes and returns the head of a TC ring. The vacated entry is
// zeroed so the backing array does not pin delivered payloads.
func (l *Link) qPop(tc int) Packet {
	h := l.qHead[tc]
	p := l.queues[tc][h]
	l.queues[tc][h] = Packet{}
	h++
	if h == len(l.queues[tc]) {
		l.queues[tc] = l.queues[tc][:0]
		h = 0
	}
	l.qHead[tc] = h
	return p
}

// SetQoS applies an mlnx_qos-style configuration. The DWRR quantum for an
// ETS class is proportional to its weight.
func (l *Link) SetQoS(q QoSConfig) {
	l.qos = q
	for i, w := range q.Weight {
		if w < 0 {
			w = 0
		}
		// Quantum in bytes per round: weight percent of a 16 KB round.
		l.quantum[i] = w * 16384 / 100
		if l.quantum[i] == 0 && q.Mode[i] == ETS {
			l.quantum[i] = 64 // idle classes still make progress
		}
	}
}

// RateGbps returns the configured line rate.
func (l *Link) RateGbps() float64 { return l.rateGbps }

// SetRecorder attaches a flight recorder; the link registers itself as an
// actor under its name and emits TC enqueue/dequeue, serialization, drop
// and corruption events. Nil disables tracing.
func (l *Link) SetRecorder(r *trace.Recorder) {
	l.rec = r
	l.recActor = r.RegisterActor(l.name)
}

// SetOnDequeue installs the dequeue hook (nil clears it). Install at wiring
// time only; the hook runs synchronously inside the serve path.
func (l *Link) SetOnDequeue(f func(tc, bytes int)) { l.onDequeue = f }

// PauseTC asserts priority flow control on one class: the link stops serving
// that TC (enqueues still succeed) until ResumeTC.
func (l *Link) PauseTC(tc int) { l.paused[tc] = true }

// ResumeTC releases a PFC pause and restarts service if the link went idle
// while everything runnable was paused.
func (l *Link) ResumeTC(tc int) {
	if !l.paused[tc] {
		return
	}
	l.paused[tc] = false
	if !l.busy && l.qLen(tc) > 0 {
		l.drain()
	}
}

// PausedTC reports whether a class is currently paused.
func (l *Link) PausedTC(tc int) bool { return l.paused[tc] }

// HasFaultPlan reports whether a fault-injection plan is installed.
func (l *Link) HasFaultPlan() bool { return l.plan != nil }

// Name returns the link's wiring name.
func (l *Link) Name() string { return l.name }

// SerializationDelay returns the time to clock the given bytes onto the wire.
func (l *Link) SerializationDelay(bytes int) sim.Duration {
	// bits / (Gbps * 1e9) seconds = bits / rate ns = bits * 1000 / rate ps.
	return sim.Duration(float64(bytes*8) * 1000.0 / l.rateGbps)
}

// Send enqueues a packet. It returns an error when the TC queue is full
// (tail drop), which the caller treats as wire-level loss.
func (l *Link) Send(p Packet) error {
	if p.TC < 0 || p.TC >= NumTCs {
		return fmt.Errorf("fabric %s: invalid TC %d", l.name, p.TC)
	}
	if p.Bytes <= 0 {
		return fmt.Errorf("fabric %s: non-positive packet size %d", l.name, p.Bytes)
	}
	if l.maxQueue > 0 && l.qLen(p.TC) >= l.maxQueue {
		l.qDrops[p.TC]++
		l.rec.Emit(trace.Event{At: int64(l.eng.Now()), Kind: trace.KindTailDrop,
			Actor: l.recActor, TC: int8(p.TC), Val: uint64(p.Bytes)})
		return fmt.Errorf("fabric %s: TC %d queue full", l.name, p.TC)
	}
	p.enqueuedAt = l.eng.Now()
	l.qPush(p.TC, p)
	l.rec.Emit(trace.Event{At: int64(p.enqueuedAt), Kind: trace.KindTCEnqueue,
		Actor: l.recActor, TC: int8(p.TC), Val: uint64(p.Bytes), Aux: uint64(l.qLen(p.TC))})
	if !l.busy {
		l.drain()
	}
	return nil
}

// pick selects the next TC to serve: strict classes first (lowest index
// wins), then DWRR among ETS classes.
func (l *Link) pick() int {
	for tc := 0; tc < NumTCs; tc++ {
		if l.qos.Mode[tc] == Strict && l.qLen(tc) > 0 && !l.paused[tc] {
			return tc
		}
	}
	// DWRR: loop until some class has enough deficit for its head packet.
	// Paused classes neither serve nor replenish — they resume with the
	// deficit they had when the pause arrived.
	for round := 0; round < 2*NumTCs+1; round++ {
		for tc := 0; tc < NumTCs; tc++ {
			if l.qos.Mode[tc] != ETS || l.qLen(tc) == 0 || l.paused[tc] {
				continue
			}
			if l.deficit[tc] >= l.queues[tc][l.qHead[tc]].Bytes {
				return tc
			}
		}
		// No class ready: replenish all backlogged, unpaused ETS classes.
		replenished := false
		for tc := 0; tc < NumTCs; tc++ {
			if l.qos.Mode[tc] == ETS && l.qLen(tc) > 0 && !l.paused[tc] {
				l.deficit[tc] += l.quantum[tc]
				replenished = true
			}
		}
		if !replenished {
			return -1
		}
	}
	// Pathological packet larger than any quantum accumulation window:
	// serve the first backlogged class to guarantee progress.
	for tc := 0; tc < NumTCs; tc++ {
		if l.qLen(tc) > 0 && !l.paused[tc] {
			return tc
		}
	}
	return -1
}

func (l *Link) drain() {
	tc := l.pick()
	if tc < 0 {
		l.busy = false
		return
	}
	l.busy = true
	p := l.qPop(tc)
	if l.qos.Mode[tc] == ETS {
		l.deficit[tc] -= p.Bytes
		if l.deficit[tc] < 0 {
			l.deficit[tc] = 0
		}
	}
	if l.qLen(tc) == 0 {
		l.deficit[tc] = 0 // DRR: idle classes forfeit their deficit
	}
	if l.onDequeue != nil {
		l.onDequeue(p.TC, p.Bytes)
	}
	l.rec.Emit(trace.Event{At: int64(l.eng.Now()), Kind: trace.KindTCDequeue,
		Actor: l.recActor, TC: int8(p.TC), Val: uint64(p.Bytes),
		Dur: int64(l.eng.Now().Sub(p.enqueuedAt))})
	ser := l.SerializationDelay(p.Bytes)
	l.inflight = p
	l.inflightSer = ser
	l.eng.After(ser, l.txDone)
}

// finishTx completes the serialization of l.inflight: charge the tx
// counters, decide the packet's in-flight fate, launch the propagation leg
// and serve the next packet. It is the single pre-bound serialization
// callback — only the propagation leg (which overlaps across packets) still
// closes over its packet.
func (l *Link) finishTx() {
	p := l.inflight
	ser := l.inflightSer
	l.inflight = Packet{}
	l.txBytes[p.TC] += uint64(p.Bytes)
	l.txPackets[p.TC]++
	l.rec.Emit(trace.Event{At: int64(l.eng.Now()), Kind: trace.KindWireTx,
		Actor: l.recActor, TC: int8(p.TC), Val: uint64(p.Bytes), Dur: int64(ser)})
	// The fault decision sits after serialization: a dropped packet was
	// clocked onto the wire (tx counters see it) but never arrives.
	drop, corrupt := l.fault(p.TC)
	if drop {
		l.faultDrops[p.TC]++
		l.rec.Emit(trace.Event{At: int64(l.eng.Now()), Kind: trace.KindWireDrop,
			Actor: l.recActor, TC: int8(p.TC), Val: uint64(p.Bytes)})
		l.drain()
		return
	}
	if corrupt {
		l.corrupts[p.TC]++
		p.Corrupt = true
		l.rec.Emit(trace.Event{At: int64(l.eng.Now()), Kind: trace.KindWireCorrupt,
			Actor: l.recActor, TC: int8(p.TC), Val: uint64(p.Bytes)})
	}
	if l.adv != nil {
		l.adv.Observe(l.eng.Now(), p)
	}
	l.propPush(p)
	l.eng.After(l.propDelay, l.propDone)
	l.drain()
}

// Adversary is an on-path attacker tapped into one link direction — the
// NeVerMore threat model of a compromised switch or machine-in-the-middle.
// Observe fires for every frame that survives serialization and the fault
// decision (what a port mirror would capture); the adversary forges traffic
// by calling Link.Inject from inside Observe or from its own scheduled
// events. The hook must never mutate the observed packet.
type Adversary interface {
	Observe(at sim.Time, p Packet)
}

// SetAdversary taps an adversary onto the link (nil clears it). Wiring time
// only; with no adversary installed the per-packet cost is one nil check.
func (l *Link) SetAdversary(a Adversary) { l.adv = a }

// Inject splices a forged or replayed frame directly onto the wire,
// bypassing the TC queues, the ETS scheduler and the serialization slot — an
// adversary with its own line-rate port does not contend with the victim's
// egress. The frame still traverses the propagation leg, so it arrives
// propDelay from now, strictly after every frame already in flight:
// injection can never reorder legitimate traffic, only interleave with it. Injected frames are charged to a separate counter, not the tx
// telemetry — a real mirror port would not see them leave this NIC.
func (l *Link) Inject(p Packet) {
	l.injected[p.TC&(NumTCs-1)]++
	l.propPush(p)
	l.eng.After(l.propDelay, l.propDone)
}

// Injected reports frames spliced in by Inject for one TC.
func (l *Link) Injected(tc int) uint64 { return l.injected[tc&(NumTCs-1)] }

// propPush appends to the propagation ring, rewinding or compacting the
// backing slice first when the consumed prefix dominates it (same discipline
// as the TC rings).
func (l *Link) propPush(p Packet) {
	q := l.propQ
	if h := l.propHead; h > 0 {
		if h == len(q) {
			q = q[:0]
			l.propHead = 0
		} else if h >= 64 && h*2 >= len(q) {
			n := copy(q, q[h:])
			q = q[:n]
			l.propHead = 0
		}
	}
	l.propQ = append(q, p)
}

// deliver completes the oldest in-flight propagation leg. Serializations
// finish in strictly increasing time and every leg adds the same propDelay,
// so arrivals pop in push order; the vacated slot is zeroed so the ring does
// not pin delivered payloads.
func (l *Link) deliver() {
	h := l.propHead
	p := l.propQ[h]
	l.propQ[h] = Packet{}
	h++
	if h == len(l.propQ) {
		l.propQ = l.propQ[:0]
		h = 0
	}
	l.propHead = h
	if l.sink != nil {
		l.sink(p)
	}
}

// SetFaultPlan installs (or, with nil, clears) a fault-injection plan. The
// plan is copied; its RNG is seeded from plan.Seed only, independent of the
// engine's stream.
func (l *Link) SetFaultPlan(plan *FaultPlan) {
	if plan == nil {
		l.plan, l.faultRNG = nil, nil
		return
	}
	p := *plan
	l.plan = &p
	l.faultRNG = rand.New(rand.NewSource(p.Seed))
	l.burstLeft = [NumTCs]int{}
}

// fault decides the fate of one departing packet under the installed plan.
func (l *Link) fault(tc int) (drop, corrupt bool) {
	if l.plan == nil {
		return false, false
	}
	if l.burstLeft[tc] > 0 {
		l.burstLeft[tc]--
		return true, false
	}
	if p := l.plan.DropProb[tc]; p > 0 && l.faultRNG.Float64() < p {
		if l.plan.BurstLen > 1 {
			l.burstLeft[tc] = l.plan.BurstLen - 1
		}
		return true, false
	}
	if p := l.plan.CorruptProb[tc]; p > 0 && l.faultRNG.Float64() < p {
		return false, true
	}
	return false, false
}

// QueueLen reports the backlog of one TC.
func (l *Link) QueueLen(tc int) int { return l.qLen(tc) }

// TxBytes reports bytes clocked out for one TC (an ethtool-style counter).
func (l *Link) TxBytes(tc int) uint64 { return l.txBytes[tc] }

// TxPackets reports packets clocked out for one TC.
func (l *Link) TxPackets(tc int) uint64 { return l.txPackets[tc] }

// Drops reports tail drops for one TC.
func (l *Link) Drops(tc int) uint64 { return l.qDrops[tc] }

// FaultDrops reports packets lost in flight by the FaultPlan for one TC.
func (l *Link) FaultDrops(tc int) uint64 { return l.faultDrops[tc] }

// Corrupts reports packets delivered with the Corrupt flag for one TC.
func (l *Link) Corrupts(tc int) uint64 { return l.corrupts[tc] }

// TotalTxBytes sums bytes across all TCs.
func (l *Link) TotalTxBytes() uint64 {
	var s uint64
	for _, b := range l.txBytes {
		s += b
	}
	return s
}

// Wire is a full-duplex connection: two independent links between endpoints
// A and B.
type Wire struct {
	AtoB *Link
	BtoA *Link
}

// NewWire builds both directions with shared rate and propagation delay.
func NewWire(eng *sim.Engine, name string, rateGbps float64, prop sim.Duration, maxQueue int, sinkB, sinkA func(Packet)) *Wire {
	return &Wire{
		AtoB: NewLink(eng, name+":a->b", rateGbps, prop, maxQueue, sinkB),
		BtoA: NewLink(eng, name+":b->a", rateGbps, prop, maxQueue, sinkA),
	}
}
