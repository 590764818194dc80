package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/thu-has/ragnar/internal/trace"
)

// span is one timed call the benchmark made into a layer of the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a unit's root span
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	Dur    int64  `json:"dur_ns"`
	Allocs uint64 `json:"allocs"` // heap objects allocated inside the span
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing.
type spanLog struct {
	t0    time.Time
	unit  int
	stack []int
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns the function that closes it. The span's
// own bookkeeping allocates before the opening reading, so Allocs counts
// only the program's allocations.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	parent := 0
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Unit: l.unit, Name: name})
	l.stack = append(l.stack, id)
	end := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s := &l.spans[id-1]
		s.Dur = time.Since(l.t0).Nanoseconds() - s.Start
		s.Allocs = ms.Mallocs - s.Allocs
		l.stack = l.stack[:len(l.stack)-1]
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &l.spans[id-1]
	s.Allocs = ms.Mallocs
	s.Start = time.Since(l.t0).Nanoseconds()
	return end
}

// durations returns the durations, in seconds, of every span named name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur)/1e9)
		}
	}
	return out
}

// perUnit sums a span's field over each unit and returns one value per
// unit that ran (zero where the unit never made the call).
func (l *spanLog) perUnit(name string, field func(span) float64) []float64 {
	out := make([]float64, l.unit)
	for _, s := range l.spans {
		if s.Name == name && s.Unit >= 1 {
			out[s.Unit-1] += field(s)
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerStats are the per-layer observations one traced unit collects from
// the program's own counters and flight recorder.
type layerStats struct {
	rec              trace.Metrics // merged flight-recorder registries
	heapLen, liveLen int           // event heap at its largest sampled size
	ctxHits          uint64
	ctxMisses        uint64
	pkts, bytes      uint64
	drops            uint64

	probes   int // ULI samples taken
	bits     int
	berSum   float64
	channels int
	ios      uint64
	stalls   uint64
	dataErrs uint64
	nvmfLats []float64 // simulated command latencies, µs
	snaps    int
}

// collect folds one rig's counters into the unit's layer stats.
func (s *layerStats) collect(r *rig) {
	s.rec.Merge(r.rec.Metrics())
	if r.probe.pending > s.heapLen {
		s.heapLen, s.liveLen = r.probe.pending, r.probe.live
	}
	for _, n := range nics(r.c) {
		k := n.Counters()
		s.ctxHits += k.CtxHits
		s.ctxMisses += k.CtxMisses
	}
	for _, l := range r.c.Links {
		for tc := 0; tc < 8; tc++ {
			s.pkts += l.TxPackets(tc)
			s.bytes += l.TxBytes(tc)
			s.drops += l.Drops(tc) + l.FaultDrops(tc)
		}
	}
}

// histQuantile is trace.Histogram.Quantile over the bucket-wise sum of hs:
// the upper edge of the power-of-two bucket holding the q-quantile, in
// picoseconds.
func histQuantile(hs []trace.Histogram, q float64) int64 {
	var counts []uint64
	var n uint64
	var max int64
	for i := range hs {
		b := hs[i].Buckets()
		if counts == nil {
			counts = make([]uint64, len(b))
		}
		for j, c := range b {
			counts[j] += c
		}
		n += hs[i].Count()
		if hs[i].Max() > max {
			max = hs[i].Max()
		}
	}
	if n == 0 {
		return 0
	}
	target := uint64(q * float64(n))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			if edge := int64(1) << uint(i); edge <= max && edge > 0 {
				return edge
			}
			return max
		}
	}
	return max
}

// cpuModules maps a profiled function's package to the layer whose
// cpu_share it counts toward.
var cpuModules = []struct{ prefix, module string }{
	{"github.com/thu-has/ragnar/internal/sim", "sim"},
	{"github.com/thu-has/ragnar/internal/nic", "nic"},
	{"github.com/thu-has/ragnar/internal/wire", "wire"},
	{"hash/crc32", "wire"},
	{"github.com/thu-has/ragnar/internal/fabric", "fabric"},
	{"github.com/thu-has/ragnar/internal/verbs", "verbs"},
	{"github.com/thu-has/ragnar/internal/uli", "uli"},
	{"github.com/thu-has/ragnar/internal/sidechan", "uli"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
}

// cpuShareModules lists the layers reported as cpu_share.<module>.
var cpuShareModules = []string{"fabric", "nic", "runtime", "sim", "uli", "verbs", "wire"}

// funcPackage returns the import path of a profiled function name such as
// "github.com/x/y/internal/sim.(*Engine).siftDown".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func moduleOf(pkg string) string {
	for _, m := range cpuModules {
		if pkg == m.prefix || strings.HasPrefix(pkg, m.prefix+"/") {
			return m.module
		}
	}
	return ""
}

// cpuShares reads a CPU profile with `go tool pprof -top` and returns each
// layer's flat share of the samples outside rig set-up: the fraction whose
// leaf frame lies in that layer's packages. Background garbage collection
// carries no label and stays in.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-tagignore=phase=setup", profile)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return parseTop(out.String())
}

// parseTop sums the flat% column of `pprof -top` output by layer.
func parseTop(text string) (map[string]float64, error) {
	shares := map[string]float64{}
	header := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %v", sc.Text(), err)
		}
		if m := moduleOf(funcPackage(strings.Join(f[5:], " "))); m != "" {
			shares[m] += pct / 100
		}
	}
	if !header {
		return nil, fmt.Errorf("pprof output has no -top table")
	}
	return shares, nil
}
