package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime/pprof"
	"time"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
)

// recorderRing is the flight-recorder ring size per rig. Only the metrics
// registry is read, and it keeps counting after the ring wraps, so a small
// ring keeps the traced run's footprint close to the untraced one.
const recorderRing = 1024

// unit is one repetition of a workload. It times every call the workload
// makes into the program, booking rig construction as set-up and
// everything else as the measured phase, hashes the simulated outputs, and
// in a traced run also records spans and per-layer observations.
type unit struct {
	seed   int64
	traced bool

	setup  time.Duration // host wall time spent building rigs
	work   cost          // host cost of the measured phase
	events uint64        // simulated events fired in the measured phase
	ops    int           // workload operations: traces, payload bits or I/Os
	digest hash.Hash     // simulated outputs, in a fixed order
	spans  *spanLog      // nil unless traced
	layers layerStats    // filled in traced runs only
	rigs   int
	notes  []string // simulated figures of merit, printed for the reference unit

	host *hostClock      // nil unless host speed is sampled
	refs []time.Duration // kernel bursts run inside the unit, between rigs
}

// note records a simulated figure of merit. The figures are calibrated to
// the paper's and are printed as fidelity checks; the digest, not these
// lines, is what the output check compares.
func (u *unit) note(format string, args ...any) {
	u.notes = append(u.notes, fmt.Sprintf(format, args...))
}

func newUnit(seed int64, spans *spanLog) *unit {
	return &unit{seed: seed, traced: spans != nil, digest: sha256.New(), spans: spans}
}

// doSetup runs fn as rig set-up: its wall time goes to setup_s. In a traced
// run its CPU samples carry the profiler label phase=setup, which the
// cpu_share figures leave out.
func (u *unit) doSetup(name string, fn func() error) error {
	end := u.spans.begin(name)
	if u.traced {
		pprof.SetGoroutineLabels(setupLabels)
		defer pprof.SetGoroutineLabels(context.Background())
	}
	t0 := time.Now()
	err := fn()
	u.setup += time.Since(t0)
	end()
	return err
}

var setupLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "setup"))

// measure runs fn as part of the measured phase.
func (u *unit) measure(name string, fn func() error) error {
	end := u.spans.begin(name)
	a := readHost()
	err := fn()
	u.work.add(a, readHost())
	end()
	return err
}

// span records a child span inside a measured call without booking cost
// again; it is a plain call when tracing is off.
func (u *unit) span(name string, fn func() error) error {
	end := u.spans.begin(name)
	err := fn()
	end()
	return err
}

// rig is one simulated topology the unit built.
type rig struct {
	c     *lab.Cluster
	rec   *trace.Recorder
	probe *heapProbe
	fired uint64 // engine events fired when the measured phase began
}

// newRig builds a point-to-point topology as set-up and, in a traced run,
// attaches a flight recorder before any traffic flows.
func (u *unit) newRig(cfg lab.Config) (*rig, error) {
	r := &rig{}
	err := u.doSetup("lab.build", func() error {
		r.c = lab.Pair(cfg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if u.traced {
		r.rec = trace.NewRecorder("perfbench", recorderRing)
		r.c.AttachRecorder(r.rec)
		r.probe = &heapProbe{eng: r.c.Eng}
		r.c.Links[1].SetAdversary(r.probe)
	}
	u.rigs++
	return r, nil
}

// start marks the end of a rig's set-up: events fired from here on belong
// to the measured phase.
func (u *unit) start(r *rig) { r.fired = r.c.Eng.Fired() }

// heapProbeEvery is how many packets the heap probe lets pass between
// samples; LivePending walks the whole heap, so it is not read per packet.
const heapProbeEvery = 16

// heapProbe samples the event heap from inside the simulation without
// touching it: it is a passive tap on the server's downlink to client 0
// (every workload's busiest direction), and every heapProbeEvery-th packet
// it reads Pending and, at each new maximum, LivePending. It never schedules
// or injects anything, so a traced run fires exactly the untraced events.
type heapProbe struct {
	eng           *sim.Engine
	n             int
	pending, live int
}

func (h *heapProbe) Observe(sim.Time, fabric.Packet) {
	h.n++
	if h.n%heapProbeEvery != 0 {
		return
	}
	if p := h.eng.Pending(); p > h.pending {
		h.pending = p
		h.live = h.eng.LivePending()
	}
}

// finish closes a rig after its measured phase. It books the phase's
// events and, in a traced run, the rig's layer counters; then, outside any
// timed phase, it drains the rig and checks it for leaked events and for
// transport errors.
func (u *unit) finish(r *rig) error {
	u.events += r.c.Eng.Fired() - r.fired
	if u.traced {
		u.layers.collect(r)
	}
	r.c.Run()
	if err := r.c.DrainCheck(); err != nil {
		return err
	}
	if err := checkNICs(r.c); err != nil {
		return err
	}
	// r is dead from here on, so the burst's collection frees the rig and
	// the kernel's collections find none of it.
	if u.host != nil && time.Since(u.host.last) >= refEvery {
		u.refs = append(u.refs, u.host.sample())
	}
	return nil
}

// checkNICs asserts the transport invariants of a benign run on every NIC:
// no QP exhausted its retries (the only source of error CQEs on these
// rigs), no completion was dropped at a full CQ, and every abuse marker is
// zero.
func checkNICs(c *lab.Cluster) error {
	for i, n := range nics(c) {
		k := n.Counters()
		bad := k.RetryExc + k.CQOverruns + k.RxBadQP + k.InvalidNaks + k.InvalidAcks + k.RxBadPSN
		if bad > 0 {
			return fmt.Errorf("nic %d: retry_exc=%d cq_overruns=%d bad_qp=%d invalid_nak=%d invalid_ack=%d bad_psn=%d",
				i, k.RetryExc, k.CQOverruns, k.RxBadQP, k.InvalidNaks, k.InvalidAcks, k.RxBadPSN)
		}
	}
	return nil
}

// nics lists a rig's NICs: the clients' in order, then the server's.
func nics(c *lab.Cluster) []*nic.NIC {
	var out []*nic.NIC
	for _, ctx := range c.Clients {
		out = append(out, ctx.NIC())
	}
	return append(out, c.Server.NIC())
}

// hashFloats folds values into the unit's output digest bit-exactly.
func (u *unit) hashFloats(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		u.digest.Write(b[:])
	}
}

// hashInts folds integers into the unit's output digest.
func (u *unit) hashInts(xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		u.digest.Write(b[:])
	}
}

func (u *unit) sum() string { return hex.EncodeToString(u.digest.Sum(nil)) }

// checkFinite rejects a trace with the wrong length or a non-finite point.
func checkFinite(xs []float64, n int) error {
	if len(xs) != n {
		return fmt.Errorf("trace has %d points, want %d", len(xs), n)
	}
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("trace point %d is %v", i, x)
		}
	}
	return nil
}
