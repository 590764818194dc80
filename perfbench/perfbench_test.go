package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests check against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkMetrics asserts that got holds exactly the metrics named in want,
// each with its declared unit.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s: unit %q, want %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// A short run of each workload, untraced and traced, is correct and emits
// every metric BENCHMARK.json names, with its unit.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	sp := loadSpec(t)
	dir := t.TempDir()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := bench(name, workloads[name], defaultSeed, time.Millisecond, traced, filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				if traced {
					checkMetrics(t, res.Metrics, sp.PerLayer)
				} else {
					checkMetrics(t, res.Metrics, sp.EndToEnd)
				}
			}
		})
	}
}

// The command prints the result as its last line, with peak_rss_mb measured
// by its child processes.
func TestCommandPrintsResultLast(t *testing.T) {
	sp := loadSpec(t)
	dir := t.TempDir()
	exe := filepath.Join(dir, "perfbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(exe, "-workload", "nvmf", "-seed", "7", "-seconds", "0.001", "-outdir", dir).Output()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct {
		t.Errorf("incorrect: %+v", res)
	}
	checkMetrics(t, res.Metrics, sp.EndToEnd)
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
}

// Two in-process runs of a unit, under different heap shims, fire the same
// events and produce the pinned default-seed digest.
func TestUnitsReplayExactly(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a := runUnit(workloads[name], defaultSeed, nil, 0, nil)
			b := runUnit(workloads[name], defaultSeed, nil, 1, newHostClock())
			if a.err != nil || b.err != nil {
				t.Fatal(a.err, b.err)
			}
			if a.u.events == 0 || a.u.events != b.u.events {
				t.Errorf("events %d then %d", a.u.events, b.u.events)
			}
			if a.digest != goldenDigests[name] || b.digest != goldenDigests[name] {
				t.Errorf("digests %s, %s; pinned %s", a.digest, b.digest, goldenDigests[name])
			}
		})
	}
}

// The output check rejects a unit whose digest differs from the pinned one,
// one whose event count differs, and one that returned an error.
func TestOutputCheckRejectsPerturbedUnits(t *testing.T) {
	o := runUnit(workloads["nvmf"], defaultSeed, nil, 0, nil)
	if got := tally([]outcome{o}, goldenDigests["nvmf"], o.u.events); got != 0 {
		t.Fatalf("unperturbed unit: %d failures", got)
	}
	perturbed := []byte(goldenDigests["nvmf"])
	perturbed[0] ^= 1
	if got := tally([]outcome{o}, string(perturbed), o.u.events); got != 1 {
		t.Errorf("perturbed digest: %d failures, want 1", got)
	}
	if got := tally([]outcome{o}, goldenDigests["nvmf"], o.u.events+1); got != 1 {
		t.Errorf("perturbed event count: %d failures, want 1", got)
	}
	bad := o
	bad.err = os.ErrInvalid
	if got := tally([]outcome{o, bad}, goldenDigests["nvmf"], o.u.events); got != 1 {
		t.Errorf("failed unit: %d failures, want 1", got)
	}

	saved := goldenDigests["nvmf"]
	goldenDigests["nvmf"] = string(perturbed)
	defer func() { goldenDigests["nvmf"] = saved }()
	res, err := bench("nvmf", workloads["nvmf"], defaultSeed, time.Millisecond, false, filepath.Join(t.TempDir(), "nvmf"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("pinned digest perturbed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestParseTop(t *testing.T) {
	text := `File: perfbench
Type: cpu
      flat  flat%   sum%        cum   cum%
     0.49s 14.29% 14.29%      0.51s 14.87%  github.com/thu-has/ragnar/internal/sim.(*Engine).siftDown
     0.16s  4.66% 18.95%      0.16s  4.66%  runtime.memclrNoHeapPointers
     0.15s  4.37% 23.32%      0.15s  4.37%  runtime.nextFreeFast (inline)
     0.10s  2.00% 25.32%      0.10s  2.00%  hash/crc32.ieeeCLMUL
     0.05s  1.00% 26.32%      0.05s  1.00%  github.com/thu-has/ragnar/internal/sim/parallel.(*Group).Run
     0.05s  1.00% 27.32%      0.05s  1.00%  internal/runtime/maps.(*Map).putSlotSmallFast64
     0.03s  0.50% 27.82%      0.03s  0.50%  github.com/thu-has/ragnar/internal/classifier.(*CNN).forward
     0.02s  0.40% 28.22%      0.02s  0.40%  slices.SortFunc[go.shape.[]github.com/thu-has/ragnar/internal/nic.x]
`
	got, err := parseTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.1529, "runtime": 0.1003, "wire": 0.02}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s share %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("shares %v, want only %v", got, want)
	}
	if _, err := parseTop("no table here"); err == nil {
		t.Error("output without a table parsed")
	}
}

// Every repetition of the reference kernel does the same work, so its time
// moves only with the host.
func TestRefKernelRepeatsItsWork(t *testing.T) {
	k := newRefKernel()
	k.rep()
	first := k.sum
	if got := k.burst(0); got <= 0 {
		t.Errorf("burst(0) = %v, want > 0", got)
	}
	if k.sum != first {
		t.Errorf("checksum %#x after a burst, %#x after one repetition", k.sum, first)
	}
}

// Host times are scaled by refNominal over the kernel time measured around
// each unit; counts are not scaled.
func TestEndToEndScalesHostTimes(t *testing.T) {
	u := &unit{events: 1000, ops: 10, setup: 40 * time.Millisecond}
	u.work.wall, u.work.cpu = 300*time.Millisecond, 200*time.Millisecond
	u.work.alloc, u.work.mallocs = 5e6, 2e6
	m := endToEnd([]outcome{{u: u, ref: 2 * refNominal}})
	want := map[string]float64{
		"wall_s": 0.15, "cpu_s": 0.1, "setup_s": 0.02, "ns_per_event": 1e5,
		"ops_per_s": 10 / 0.15, "alloc_mb": 5, "allocs_m": 2,
	}
	for k, v := range want {
		if d := m[k].Value/v - 1; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k].Value, v)
		}
	}
}
