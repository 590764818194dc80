// Command perfbench is Ragnar's benchmark. It runs one workload — snoop,
// covert or nvmf — as a batch closed loop of identical units for a fixed
// host-time budget, checks every unit's simulated outputs, and prints one
// JSON result line: end-to-end metrics by default, per-layer metrics from a
// separate traced phase with -trace 1. See README.md in this directory.
//
//	go build -o perfbench . && ./perfbench -workload snoop -seed 1 -seconds 35 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/thu-has/ragnar/internal/trace"
)

// defaultSeed is the seed whose outputs are pinned in goldenDigests.
const defaultSeed = 1

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// manifest identifies the run. Figures from different hosts are never
// comparable, so it travels with every result.
type manifest struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Revision   string  `json:"revision"`
	Profile    string  `json:"profile"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: snoop, covert or nvmf")
	seed := flag.Int64("seed", defaultSeed, "workload seed; every input is derived from it")
	seconds := flag.Float64("seconds", 35, "host-time budget of the measured phase")
	traced := flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	outdir := flag.String("outdir", filepath.Join(".bench_build", "perfbench"), "directory for spans, profile and manifest")
	rssProbe := flag.Int("rss-probe", -1, "run unit k of a run alone and exit (the peak_rss_mb child process)")
	flag.Parse()

	// The simulation runs on one goroutine. With a second P, every garbage
	// collection cycle wakes a thread on another CPU and the mutator waits
	// on it, which on a shared host inflated wall time by 5-35% at random;
	// one P keeps wall time within a few percent of CPU time.
	runtime.GOMAXPROCS(1)

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload snoop|covert|nvmf -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	if *rssProbe >= 0 {
		if o := runUnit(run, *seed, nil, *rssProbe, nil); o.err != nil {
			fatal(o.err)
		}
		hwm, err := vmHWM()
		if err != nil {
			fatal(err)
		}
		fmt.Println(hwm)
		return
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fatal(err)
	}
	stem := filepath.Join(*outdir, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traced))
	man, err := json.Marshal(newManifest(*workload, *seed, *seconds, *traced == 1))
	if err != nil {
		fatal(err)
	}
	fmt.Println("manifest:", string(man))
	if err := os.WriteFile(stem+".manifest.json", man, 0o644); err != nil {
		fatal(err)
	}

	budget := time.Duration(*seconds * float64(time.Second))
	res, err := bench(*workload, run, *seed, budget, *traced == 1, stem)
	if err != nil {
		fatal(err)
	}
	if *traced == 0 {
		rss, err := probeRSS(*workload, *seed)
		if err != nil {
			fatal(err)
		}
		res.Metrics["peak_rss_mb"] = metric{rss / 1e6, "MB"}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func newManifest(workload string, seed int64, seconds float64, traced bool) manifest {
	m := manifest{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: traced,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown", Profile: profile.Name,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Revision = s.Value
			}
		}
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// outcome is what one unit reported.
type outcome struct {
	u      *unit
	digest string
	err    error
	ref    time.Duration // reference kernel time around the unit; 0 if not measured
}

// runUnit runs one unit on a freshly collected heap, so every repetition
// starts from the same garbage-collector state, perturbed by shim k. With
// a host clock, the unit samples host speed between its rigs.
func runUnit(run func(*unit) error, seed int64, spans *spanLog, k int, host *hostClock) outcome {
	runtime.GC()
	pad := shim(k)
	if spans != nil {
		spans.unit++
	}
	u := newUnit(seed, spans)
	u.host = host
	end := spans.begin("unit")
	err := run(u)
	end()
	runtime.KeepAlive(pad)
	return outcome{u: u, digest: u.sum(), err: err}
}

// shim gives unit k of a run its own heap layout and collector phase.
// Replaying a seed replays its allocation sequence, so without this every
// unit of a run would hit the same cache-set conflicts and collect at the
// same points of the workload: five covert runs of one seed were all ~10%
// slower than a run of another, whose simulated events differed by 0.2%,
// and a traced run of the two (another layout) was equally fast. Garbage
// of a size drawn below the 4 MB minimum heap goal moves where each
// collection falls, and live padding in every small size class, with and
// without pointers, moves the addresses the unit's own objects get. The
// draws depend on k only, so the same units run under the same shims on
// every seed and every commit.
func shim(k int) [][]*byte {
	rng := rand.New(rand.NewSource(int64(k)))
	runtime.KeepAlive(make([]byte, rng.Intn(4<<20)))
	var pad [][]*byte
	for _, words := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128} {
		for n := rng.Intn(32); n > 0; n-- {
			pad = append(pad, make([]*byte, words))
			buf := make([]byte, 8*words)
			pad = append(pad, []*byte{&buf[0]})
		}
	}
	return pad
}

// repeat runs units back to back until budget is spent (at least one).
// With a host clock, a kernel burst runs before the first unit and after
// every unit, and each unit's ref is the mean of the bursts from the one
// before it to the one after it, its own included.
func repeat(run func(*unit) error, seed int64, budget time.Duration, spans *spanLog, host *hostClock) []outcome {
	var outs []outcome
	var before time.Duration
	if host != nil {
		before = host.sample()
	}
	t0 := time.Now()
	for len(outs) == 0 || time.Since(t0) < budget {
		o := runUnit(run, seed, spans, len(outs), host)
		if host != nil {
			after := host.sample()
			bursts := append(append([]time.Duration{before}, o.u.refs...), after)
			var sum time.Duration
			for _, b := range bursts {
				sum += b
			}
			o.ref = sum / time.Duration(len(bursts))
			before = after
		}
		outs = append(outs, o)
	}
	return outs
}

// tally counts the units that failed: a unit fails when it returned an
// error, when its digest differs from want, or when its event count
// differs from the first unit's (every repetition replays one simulation).
func tally(outs []outcome, want string, events uint64) (failed int) {
	for _, o := range outs {
		switch {
		case o.err != nil:
			fmt.Fprintln(os.Stderr, "perfbench: unit failed:", o.err)
			failed++
		case o.digest != want:
			fmt.Fprintf(os.Stderr, "perfbench: output digest %s, want %s\n", o.digest, want)
			failed++
		case o.u.events != events:
			fmt.Fprintf(os.Stderr, "perfbench: %d events, want %d\n", o.u.events, events)
			failed++
		}
	}
	return failed
}

func bench(name string, run func(*unit) error, seed int64, budget time.Duration, traced bool, stem string) (result, error) {
	// The reference unit replays the default seed and is checked against
	// the pinned digest; it also warms code paths and free lists before
	// anything is timed.
	ref := runUnit(run, defaultSeed, nil, 0, nil)
	attempted := 1
	failed := tally([]outcome{ref}, goldenDigests[name], ref.u.events)
	fmt.Printf("reference: seed %d digest %s events %d\n", defaultSeed, ref.digest, ref.u.events)
	for _, n := range ref.u.notes {
		fmt.Println("fidelity:", n)
	}

	phase := budget
	if traced {
		phase = budget / 2
	}
	outs := repeat(run, seed, phase, nil, newHostClock())
	attempted += len(outs)
	want := outs[0].digest
	if seed == defaultSeed {
		want = goldenDigests[name]
	}
	failed += tally(outs, want, outs[0].u.events)
	fmt.Printf("units: %d digest %s events %d\n", len(outs), outs[0].digest, outs[0].u.events)
	fmt.Printf("unit wall_s: %.4f\n", unitFigures(outs, func(u *unit) float64 { return u.work.wall.Seconds() }))
	fmt.Printf("unit cpu_s: %.4f\n", unitFigures(outs, func(u *unit) float64 { return u.work.cpu.Seconds() }))
	refMs := refMillis(outs)
	fmt.Printf("unit ref_ms: %.3f\n", refMs)
	fmt.Printf("raw medians: wall_s %.4f cpu_s %.4f setup_s %.4f ref_ms %.3f\n",
		median(unitFigures(outs, func(u *unit) float64 { return u.work.wall.Seconds() })),
		median(unitFigures(outs, func(u *unit) float64 { return u.work.cpu.Seconds() })),
		median(unitFigures(outs, func(u *unit) float64 { return u.setup.Seconds() })),
		median(refMs))
	res := result{Attempted: attempted, Failed: failed}
	if !traced {
		res.Metrics = endToEnd(outs)
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Traced phase: recorders, spans and a CPU profile. Its outputs must
	// match the untraced units' exactly.
	spans := newSpanLog()
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return result{}, err
	}
	// No reference kernel here: its samples would dilute the profile.
	touts := repeat(run, seed, phase, spans, nil)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return result{}, err
	}
	res.Attempted += len(touts)
	res.Failed += tally(touts, want, outs[0].u.events)
	if err := spans.write(stem + ".spans.json"); err != nil {
		return result{}, err
	}
	shares, err := cpuShares(prof.Name())
	if err != nil {
		return result{}, err
	}
	res.Metrics = perLayer(outs, touts, spans, shares)
	res.Correct = res.Failed == 0
	return res, nil
}

// rssProbes is how many child processes probeRSS starts.
const rssProbes = 5

// probeRSS reports the median peak RSS of rssProbes fresh processes that
// each run one unit of the workload, under the shims of the run's first
// units. A long run's own peak is the worst of hundreds of collection
// cycles, and how far the heap overshoots in a cycle depends on when the
// collector got CPU time: it varied from 25 to 37 MB between nvmf runs of
// identical code. A fresh process with the concurrent collector still
// overshot by up to half now and then, more often while the host was
// loaded, and the median of five spread 5-10% between runs on snoop. So
// the probes collect stop-the-world (GODEBUG=gcstoptheworld=1): a
// collection then finishes where it starts, and the peak is what the
// unit's live data and the garbage between two collections need, which a
// program retaining or churning more memory still raises. Timing is not
// measured here, but no more probes run at once than the host has CPUs, so
// the probes never oversubscribe it.
func probeRSS(workload string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmds := make([]*exec.Cmd, rssProbes)
	outs := make([]bytes.Buffer, rssProbes)
	for i := range cmds {
		cmds[i] = exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-rss-probe", strconv.Itoa(i))
		cmds[i].Stdout, cmds[i].Stderr = &outs[i], os.Stderr
		cmds[i].Env = append(os.Environ(), "GODEBUG=gcstoptheworld=1")
	}
	errs := make([]error, rssProbes)
	for lo := 0; lo < rssProbes; lo += runtime.NumCPU() {
		batch := cmds[lo:min(lo+runtime.NumCPU(), rssProbes)]
		for i, c := range batch {
			if err := c.Start(); err != nil {
				for _, s := range batch[:i] {
					s.Process.Kill()
					s.Wait()
				}
				return 0, fmt.Errorf("rss probe: %w", err)
			}
		}
		for i, c := range batch {
			errs[lo+i] = c.Wait()
		}
	}
	peaks := make([]float64, rssProbes)
	for i := range peaks {
		if errs[i] != nil {
			return 0, fmt.Errorf("rss probe: %w", errs[i])
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(outs[i].String()), 64)
		if err != nil {
			return 0, fmt.Errorf("rss probe output %q: %w", outs[i].String(), err)
		}
		peaks[i] = v
	}
	fmt.Printf("rss probes MB: %.2f\n", scale(peaks, 1e-6))
	return median(peaks), nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// unitFigures extracts one figure per unit.
func unitFigures(outs []outcome, f func(*unit) float64) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = f(o.u)
	}
	return xs
}

// refMillis lists each unit's reference kernel time in milliseconds.
func refMillis(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = float64(o.ref) / 1e6
	}
	return xs
}

// endToEnd reports each metric as the median over the run's units. Host
// times are scaled to reference host speed: a unit's times are multiplied
// by refNominal over the reference kernel time measured around it.
func endToEnd(outs []outcome) map[string]metric {
	med := func(f func(u *unit, speed float64) float64) float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = f(o.u, float64(refNominal)/float64(o.ref))
		}
		return median(xs)
	}
	return map[string]metric{
		"wall_s":      {med(func(u *unit, k float64) float64 { return u.work.wall.Seconds() * k }), "s"},
		"cpu_s":       {med(func(u *unit, k float64) float64 { return u.work.cpu.Seconds() * k }), "s"},
		"setup_s":     {med(func(u *unit, k float64) float64 { return u.setup.Seconds() * k }), "s"},
		"peak_rss_mb": {0, "MB"}, // filled in by probeRSS
		"alloc_mb":    {med(func(u *unit, _ float64) float64 { return float64(u.work.alloc) / 1e6 }), "MB"},
		"allocs_m":    {med(func(u *unit, _ float64) float64 { return float64(u.work.mallocs) / 1e6 }), "1e6"},
		"ns_per_event": {med(func(u *unit, k float64) float64 {
			return float64(u.work.cpu.Nanoseconds()) * k / float64(u.events)
		}), "ns"},
		"ops_per_s": {med(func(u *unit, k float64) float64 { return float64(u.ops) / (u.work.wall.Seconds() * k) }), "1/s"},
	}
}

// perLayer reports the traced phase: recorder and counter figures per unit
// (identical across units, since every unit replays one simulation), span
// timings as medians, CPU shares from the profile, and the traced phase's
// wall-time overhead over the untraced units.
func perLayer(outs, touts []outcome, spans *spanLog, shares map[string]float64) map[string]metric {
	u := touts[len(touts)-1].u
	l := &u.layers
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	perUnitSecs := func(name string) float64 {
		return median(spans.perUnit(name, func(s span) float64 { return float64(s.Dur) / 1e9 }))
	}

	put("lab.build_s", perUnitSecs("lab.build"), "s")
	put("lab.rigs", float64(u.rigs), "count")

	put("sim.events", float64(u.events), "count")
	put("sim.heap_len", float64(l.heapLen), "count")
	put("sim.live_len", float64(l.liveLen), "count")
	tomb := 0.0
	if l.heapLen > 0 {
		tomb = float64(l.heapLen-l.liveLen) / float64(l.heapLen)
	}
	put("sim.tombstone_share", tomb, "ratio")

	rec := &l.rec
	put("nic.retx", float64(rec.Retransmits()), "count")
	put("nic.naks", float64(rec.SeqNaks()), "count")
	put("nic.dup_acks", float64(rec.DupAcks()), "count")
	ctxMiss := 0.0
	if n := l.ctxHits + l.ctxMisses; n > 0 {
		ctxMiss = float64(l.ctxMisses) / float64(n)
	}
	put("nic.ctx_miss_ratio", ctxMiss, "ratio")

	put("fabric.pkts", float64(l.pkts), "count")
	put("fabric.bytes", float64(l.bytes), "B")
	put("fabric.drops", float64(l.drops), "count")
	put("fabric.qdelay_p99_ns", float64(histQuantile(rec.QueueDelay[:], 0.99))/1e3, "ns")

	put("verbs.wqes", float64(rec.Count(trace.KindWQEPost)), "count")
	put("verbs.cqes", float64(rec.Count(trace.KindCQE)), "count")
	put("verbs.wqe_lat_p99_ns", float64(histQuantile([]trace.Histogram{rec.WQELatency}, 0.99))/1e3, "ns")

	caps := spans.durations("sidechan.capture")
	put("sidechan.capture_ms_p50", quantile(caps, 0.5)*1e3, "ms")
	put("sidechan.capture_ms_p90", quantile(caps, 0.9)*1e3, "ms")
	put("sidechan.captures", float64(len(caps)), "count")
	put("uli.probes", float64(l.probes), "count")

	put("covert.transmit_s", perUnitSecs("covert.transmit"), "s")
	put("covert.bits", float64(l.bits), "count")
	ber := 0.0
	if l.channels > 0 {
		ber = l.berSum / float64(l.channels)
	}
	put("covert.ber", ber, "ratio")

	put("appnvmf.ios", float64(l.ios), "count")
	put("appnvmf.stalls", float64(l.stalls), "count")
	put("appnvmf.p99_us", quantile(l.nvmfLats, 0.99), "us")
	put("appnvmf.data_errs", float64(l.dataErrs), "count")

	snapUs := spans.durations("telemetry.snap")
	snapAllocs := spans.perUnit("telemetry.snap", func(s span) float64 { return float64(s.Allocs) })
	put("telemetry.snaps", float64(l.snaps), "count")
	put("telemetry.snap_us", median(snapUs)*1e6, "us")
	perSnap := 0.0
	if l.snaps > 0 {
		perSnap = median(snapAllocs) / float64(l.snaps)
	}
	put("telemetry.allocs_per_snap", perSnap, "count")
	put("defense.train_s", perUnitSecs("defense.train"), "s")
	put("defense.score_s", perUnitSecs("defense.score"), "s")

	put("classifier.train_s", perUnitSecs("classifier.train"), "s")

	for _, mod := range cpuShareModules {
		put("cpu_share."+mod, shares[mod], "ratio")
	}

	plain := median(unitFigures(outs, func(u *unit) float64 { return u.work.wall.Seconds() }))
	tr := median(unitFigures(touts, func(u *unit) float64 { return u.work.wall.Seconds() }))
	put("trace.untraced_wall_s", plain, "s")
	put("trace.traced_wall_s", tr, "s")
	put("trace.overhead_pct", 100*(tr-plain)/plain, "%")
	put("host.ref_ms", median(refMillis(outs)), "ms")
	return m
}
