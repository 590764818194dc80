package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/thu-has/ragnar/internal/appnvmf"
	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/experiments"
	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/rednlite"
	"github.com/thu-has/ragnar/internal/sim"
)

// The bench subcommand is the repo's machine-readable perf baseline: it runs
// the hot-path benchmarks through testing.Benchmark and emits one JSON
// document per run, designed to be checked in as BENCH_<date>.json (see
// scripts/bench.sh and EXPERIMENTS.md "Performance baseline"). Ten
// probes:
//
//   - engine-schedule-fire: raw scheduler cost, one self-rescheduling event
//     (the same steady-state pattern the bench-guard CI job gates at
//     0 allocs/op);
//   - switch-forward: per-packet cost of the switched-fabric forwarding
//     path — ingress lookup, shared-buffer admission, forwarding pipe,
//     egress ETS scheduling, serialization and propagation (the
//     BenchmarkSwitchForward pattern, also gated at 0 allocs/op);
//   - context-cache-hit: resident ICM context lookup on the NIC datapath
//     (the BenchmarkContextCacheHit pattern, also gated at 0 allocs/op);
//   - clos-forward: a cross-leaf WRITE burst through the leaf-spine
//     fabric, NIC-to-NIC via ECMP trunks;
//   - channel-inter-mr / channel-intra-mr: full covert-channel transmits —
//     NIC + fabric + transport — with simulated events/sec derived from the
//     engine's fired-event counter;
//   - nvmf-io: a 1 ms slice of the NVMe-oF storage victim — command capsule
//     SENDs, target data-phase WRITE/READ, completion capsules — the ULP hot
//     path the nvmf attack cells stress, including the per-QP placement gate
//     on the responder;
//   - redn-chain: a full RedN-lite offloaded branch — CAS gate, WAIT/ENABLE
//     cross-QP doorbells, the self-modifying gate patch and the taken-arm
//     write burst — assembled, launched and drained to completion (the SQ
//     state-machine management pipeline hot);
//   - lossgrid: the heaviest composite experiment (retransmission paths hot);
//   - defgrid: the defense Pareto grid — the full attack battery against the
//     CX5-ISO hardening ladder (DWRR arbitration, constant-time TPU and
//     AES-per-verb paths all hot).

// benchSchema names the JSON layout so future sessions can evolve it without
// silently breaking comparisons.
const benchSchema = "ragnar-bench/v1"

type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// EventsPerSec is simulator events executed per wall-clock second
	// (engine throughput for the scheduler probe, whole-stack event rate for
	// the channel probes). Zero when the probe does not track events.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// SimEventsPerOp is the number of engine events one operation fires.
	SimEventsPerOp uint64 `json:"sim_events_per_op,omitempty"`
}

type benchDoc struct {
	Schema     string        `json:"schema"`
	Date       string        `json:"date"`
	GoVersion  string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	CPUs       int           `json:"cpus"`
	NIC        string        `json:"nic"`
	Seed       int64         `json:"seed"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

func benchCmd(prof nic.Profile, seed int64, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "write the JSON document to stdout instead of a table")
	out := fs.String("out", "", "also write the JSON document to this file (table still goes to stdout)")
	fs.Parse(args)

	doc := benchDoc{
		Schema:    benchSchema,
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		NIC:       prof.Name,
		Seed:      seed,
	}

	// Scheduler steady state: one event rescheduling itself b.N times, so
	// every iteration is exactly one schedule+fire pair and ns/op is the
	// per-event cost.
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine(seed)
		n := 0
		var fn func()
		fn = func() {
			n++
			if n < b.N {
				e.After(10*sim.Nanosecond, fn)
			}
		}
		b.ResetTimer()
		e.After(sim.Nanosecond, fn)
		e.Run()
	})
	doc.Benchmarks = append(doc.Benchmarks, record("engine-schedule-fire", r, 1))

	// Switch forwarding steady state: a paced injector streams 1 KB packets
	// through a one-output switch (1024 B at 100 Gbps serializes in ~82 ns,
	// under the 200 ns pace, so queues stay bounded). Each op is one packet
	// end to end; events/op comes from the engine's fired counter.
	var swFired uint64
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine(seed)
		sw := fabric.NewSwitch(e, fabric.SwitchConfig{
			Name:           "bench",
			FwdDelay:       300 * sim.Nanosecond,
			SharedBufBytes: 1 << 20,
			XOffBytes:      96 << 10,
		})
		out := sw.AddPort("host", 100, 100*sim.Nanosecond, 0, fabric.DefaultQoS(), func(fabric.Packet) {})
		sw.Route(1, out)
		n := 0
		var inject func()
		inject = func() {
			n++
			sw.Ingress(fabric.Packet{TC: 3, Bytes: 1024, Dst: 1})
			if n < b.N {
				e.After(200*sim.Nanosecond, inject)
			}
		}
		b.ResetTimer()
		e.After(sim.Nanosecond, inject)
		e.Run()
		swFired = e.Fired()
	})
	doc.Benchmarks = append(doc.Benchmarks, record("switch-forward", r, swFired/uint64(r.N)))

	// ICM context-cache hit path: one resident lookup per op against a
	// CX5-sized cache, with a working set large enough to splice non-head
	// LRU nodes. Pure data-structure probe — no engine, so no events/sec.
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		c := nic.NewContextCache(2048)
		const keys = 512
		for i := uint32(0); i < keys; i++ {
			c.Access(nic.QPCtxKey(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !c.Access(nic.QPCtxKey(uint32(i) % keys)) {
				b.Fatal("hit path missed")
			}
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("context-cache-hit", r, 0))

	// Leaf-spine forwarding: one op is a 32-WRITE burst from a far-leaf
	// client to the server across the default Clos — trunk links, ECMP
	// hashing and the delayed trunk pause relays all on the path.
	var closFired uint64
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := lab.Clos(lab.ClosConfig{Seed: seed + int64(i), Profile: prof})
			mr, err := c.RegisterServerMR(1 << 20)
			if err != nil {
				b.Fatal(err)
			}
			conn, err := c.Dial(len(c.Clients)-1, 32)
			if err != nil {
				b.Fatal(err)
			}
			for w := 0; w < 32; w++ {
				if err := conn.QP.PostWrite(uint64(w), nil, mr.Describe(uint64(w)*2048), 2048); err != nil {
					b.Fatal(err)
				}
			}
			c.Run()
			closFired = c.Eng.Fired()
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("clos-forward", r, closFired))

	payload := bitstream.RandomBits(7, 64)
	for _, ch := range []struct {
		name string
		mk   func(nic.Profile, int64) (*covert.ULIChannel, error)
	}{
		{"channel-inter-mr", covert.NewInterMRChannel},
		{"channel-intra-mr", covert.NewIntraMRChannel},
	} {
		var fired uint64
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := ch.mk(prof, seed+int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Transmit(payload); err != nil {
					b.Fatal(err)
				}
				fired = c.Cluster.Eng.Fired()
			}
		})
		doc.Benchmarks = append(doc.Benchmarks, record(ch.name, r, fired))
	}

	// NVMe-oF I/O steady state: one op runs the appnvmf victim rig for 1 ms
	// of virtual time — initiator capsules, target data phase and completions
	// over the RC transport — then drains. Events/sec from the engine's fired
	// counter covers the whole stack (host DMA, NIC pipelines, fabric).
	var ioFired uint64
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := lab.New(lab.Config{Profile: prof, Seed: seed + int64(i)})
			tgt, err := appnvmf.NewTarget(c.Server, 2<<20)
			if err != nil {
				b.Fatal(err)
			}
			tq, err := tgt.Serve(64)
			if err != nil {
				b.Fatal(err)
			}
			ini, err := appnvmf.NewInitiator(c.Clients[0], tq, appnvmf.DefaultWorkload(seed+int64(i)))
			if err != nil {
				b.Fatal(err)
			}
			ini.Start()
			c.RunFor(sim.Millisecond)
			ini.Stop()
			c.Run()
			ioFired = c.Eng.Fired()
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("nvmf-io", r, ioFired))

	// RedN-lite chain steady state: one op assembles the offloaded branch
	// (taken arm), launches it with one doorbell and drains the whole chain —
	// CAS, both barriers, the gate self-modify, the ENABLE release and the
	// unrolled write-burst loop all retire through the SQ state machine.
	var chainFired uint64
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := lab.New(lab.Config{Profile: prof, Seed: seed + int64(i)})
			mr, err := c.RegisterServerMR(2 << 20)
			if err != nil {
				b.Fatal(err)
			}
			mainConn, err := c.Dial(0, 64)
			if err != nil {
				b.Fatal(err)
			}
			branchConn, err := c.Dial(0, 1024)
			if err != nil {
				b.Fatal(err)
			}
			code, err := branchConn.Client.AllocPD().RegMR(1024*nic.SQSlotBytes, host.Page4K, 0)
			if err != nil {
				b.Fatal(err)
			}
			mainLane, err := rednlite.NewLane(mainConn.QP, mainConn.CQ, nil)
			if err != nil {
				b.Fatal(err)
			}
			branchLane, err := rednlite.NewLane(branchConn.QP, branchConn.CQ, code)
			if err != nil {
				b.Fatal(err)
			}
			flag := mr.Bytes()
			flag[0] = 7 // taken
			branch, err := rednlite.NewBranch(branchLane)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 4096)
			branch.Loop(16, func(ch *rednlite.Chain) {
				for k := 0; k < 4; k++ {
					ch.Write(payload, mr.Describe(uint64(512<<10+k*4096)), 4096)
				}
			})
			if err := rednlite.New(mainLane).If(mr.Describe(0), 7, branch).Launch(); err != nil {
				b.Fatal(err)
			}
			c.Run()
			chainFired = c.Eng.Fired()
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("redn-chain", r, chainFired))

	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.LossGrid(prof, 96, 2, nil, seed+int64(i), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("lossgrid", r, 0))

	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.DefGrid(prof, seed+int64(i), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("defgrid", r, 0))

	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
	}
	if *asJSON {
		os.Stdout.Write(blob)
		return nil
	}
	fmt.Printf("%s %s/%s %s, %d CPU, seed %d\n", doc.GoVersion, doc.GOOS, doc.GOARCH, doc.NIC, doc.CPUs, doc.Seed)
	fmt.Printf("%-22s %12s %14s %10s %12s %14s\n", "benchmark", "iters", "ns/op", "B/op", "allocs/op", "events/sec")
	for _, rec := range doc.Benchmarks {
		ev := "-"
		if rec.EventsPerSec > 0 {
			ev = fmt.Sprintf("%14.0f", rec.EventsPerSec)
		}
		fmt.Printf("%-22s %12d %14.1f %10d %12d %14s\n",
			rec.Name, rec.Iterations, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp, ev)
	}
	if *out != "" {
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

// record converts a testing.BenchmarkResult plus the per-op simulator event
// count into the JSON row.
func record(name string, r testing.BenchmarkResult, eventsPerOp uint64) benchRecord {
	rec := benchRecord{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if eventsPerOp > 0 && rec.NsPerOp > 0 {
		rec.SimEventsPerOp = eventsPerOp
		rec.EventsPerSec = float64(eventsPerOp) * 1e9 / rec.NsPerOp
	}
	return rec
}
