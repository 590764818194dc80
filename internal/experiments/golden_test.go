package experiments

// Golden-output tests: the rendered rows of the paper's tables and figures
// are pinned to testdata/*.golden, and every scenario is rendered both
// sequentially and at NumCPU workers. Together they prove the parallel
// sweep engine neither reorders nor perturbs a single rendered row.
// Regenerate after an intentional model change with:
//
//	go test ./internal/experiments -run TestGolden -update

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/revengine"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, render func(workers int) string) {
	t.Helper()
	seq := render(1)
	par := render(runtime.NumCPU())
	if seq != par {
		t.Fatalf("%s: parallel render differs from sequential render\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
			name, seq, runtime.NumCPU(), par)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(want) != seq {
		t.Fatalf("%s: render drifted from golden file (rerun with -update if the change is intentional)\n--- got ---\n%s\n--- want ---\n%s",
			name, seq, want)
	}
}

func TestGoldenFig4Render(t *testing.T) {
	checkGolden(t, "fig4_cx4", func(workers int) string {
		return Fig4(nic.CX4, false, workers).Render()
	})
}

func TestGoldenOffsetRender(t *testing.T) {
	// A reduced Figure 6: enough offsets to exercise the 8/64 B structure in
	// the rendered rows without the full offsetsAround() axis.
	offsets := []uint64{0, 7, 8, 63, 64, 65, 128, 2048, 4096}
	checkGolden(t, "fig6_cx4_small", func(workers int) string {
		points, err := revengine.AbsOffsetSweep(nic.CX4, 64, offsets, 120, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		r := OffsetResult{NIC: nic.CX4.Name, Figure: "Figure 6 (abs offset, 64B reads)", MsgSize: 64, Points: points}
		return r.Render()
	})
}

func TestGoldenRelOffsetRender(t *testing.T) {
	deltas := []uint64{64, 512, 1024, 1088, 2048}
	checkGolden(t, "fig8_cx4_small", func(workers int) string {
		points, err := revengine.RelOffsetSweep(nic.CX4, 64, deltas, 120, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		r := OffsetResult{NIC: nic.CX4.Name, Figure: "Figure 8 (rel offset, 64B reads)", MsgSize: 64, Points: points}
		return r.Render()
	})
}

func TestGoldenFig5Render(t *testing.T) {
	checkGolden(t, "fig5_cx4", func(workers int) string {
		r, err := Fig5(nic.CX4, 120, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	})
}

func TestGoldenTable5Render(t *testing.T) {
	checkGolden(t, "table5", func(workers int) string {
		r, err := Table5(64, 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	})
}

// The goldens below use the ragnar CLI's default arguments (-nic cx4,
// -seed 1, 200 probes), so each file matches `ragnar <exp>` byte for byte.

func TestGoldenFig7Render(t *testing.T) {
	checkGolden(t, "fig7_cx4", func(workers int) string {
		r, err := Fig7(nic.CX4, 200, 1, workers)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	})
}

func TestGoldenFig9Render(t *testing.T) {
	checkGolden(t, "fig9", func(workers int) string {
		return Fig9(1, workers).Render()
	})
}

func TestGoldenFig10Render(t *testing.T) {
	checkGolden(t, "fig10", func(int) string {
		r, err := Fig10(1)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	})
}

func TestGoldenFig11Render(t *testing.T) {
	checkGolden(t, "fig11", func(workers int) string {
		r, err := Fig11(1, workers)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	})
}

func TestGoldenFig12Render(t *testing.T) {
	checkGolden(t, "fig12_cx4", func(int) string {
		return Fig12(nic.CX4, 1).Render()
	})
}

func TestGoldenPythiaRender(t *testing.T) {
	checkGolden(t, "pythia", func(int) string {
		r, err := PythiaCompare(64, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	})
}

func TestGoldenDefenseRender(t *testing.T) {
	checkGolden(t, "defense_cx4", func(int) string {
		r, err := DefenseEval(nic.CX4, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	})
}
