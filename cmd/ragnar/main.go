// Command ragnar regenerates the paper's tables and figures by id.
//
// Usage:
//
//	ragnar [-nic cx4|cx5|cx6] [-full] [-seed N] <experiment> [...]
//
// Experiments: table1 table3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
// table5 lossgrid tenants exhaust nvmf pythia fig12 fig13 defense defgrid
// redn clos all
//
// The trace subcommand re-runs an experiment rig with the flight recorder
// attached and exports the event stream:
//
//	ragnar trace [-o out.json] [-text] <fig9|intermr|intramr|lossgrid>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/thu-has/ragnar/internal/experiments"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/trace"
)

func main() {
	nicName := flag.String("nic", "cx4", "adapter for single-NIC experiments (cx4, cx5, cx6, cx5-iso)")
	full := flag.Bool("full", false, "run paper-scale parameter spaces (slower)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines for sweeps (1 = sequential; results are identical at any count)")
	perClass := flag.Int("perclass", 12, "fig13 traces per class (paper: ~395)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of rendered tables")
	flag.Parse()
	emitJSON = *jsonOut
	if *workers <= 0 {
		fmt.Fprintf(os.Stderr, "ragnar: -workers %d invalid, using %d\n", *workers, runtime.GOMAXPROCS(0))
		*workers = runtime.GOMAXPROCS(0)
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ragnar [flags] <table1|table3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|table5|lossgrid|tenants|exhaust|nvmf|pythia|fig12|fig13|defense|defgrid|redn|clos|all>")
		fmt.Fprintln(os.Stderr, "       ragnar [flags] trace [-o out.json] [-text] <fig9|intermr|intramr|lossgrid>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	prof, ok := nic.ProfileByName(*nicName)
	if !ok {
		fatalf("unknown NIC %q (available: %s)", *nicName, strings.Join(nic.ProfileNames(), ", "))
	}

	if flag.Arg(0) == "trace" {
		if err := runTrace(flag.Args()[1:], prof, *seed); err != nil {
			fatalf("trace: %v", err)
		}
		return
	}

	args := flag.Args()
	if len(args) == 1 && args[0] == "all" {
		args = []string{"table1", "table3", "fig4", "fig5", "fig6", "fig7", "fig8",
			"fig9", "fig10", "fig11", "table5", "lossgrid", "tenants", "exhaust", "nvmf", "pythia", "fig12", "fig13", "defense", "defgrid", "redn", "clos"}
	}
	for _, exp := range args {
		if err := run(exp, prof, *full, *seed, *perClass, *workers); err != nil {
			fatalf("%s: %v", exp, err)
		}
	}
}

// emitJSON switches output to JSON (set by the -json flag).
var emitJSON bool

// emit prints a result either rendered or as JSON.
func emit(result any, render func() string) error {
	if !emitJSON {
		fmt.Print(render())
		return nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(result)
}

func run(exp string, prof nic.Profile, full bool, seed int64, perClass, workers int) error {
	probes := 200
	if full {
		probes = 600
	}
	switch exp {
	case "table1":
		rows := experiments.Table1()
		return emit(rows, func() string { return experiments.RenderTable1(rows) })
	case "table2", "table3":
		fmt.Print(experiments.RenderTable3())
	case "fig4":
		for _, p := range pick(prof, full) {
			r := experiments.Fig4(p, full, workers)
			if err := emit(r, r.Render); err != nil {
				return err
			}
		}
	case "fig5":
		r, err := experiments.Fig5(prof, probes, seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "fig6":
		r, err := experiments.Fig6(prof, probes, seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "fig7":
		r, err := experiments.Fig7(prof, probes, seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "fig8":
		r, err := experiments.Fig8(prof, probes, seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "fig9":
		r := experiments.Fig9(seed, workers)
		return emit(r, r.Render)
	case "fig10":
		r, err := experiments.Fig10(seed)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "fig11":
		r, err := experiments.Fig11(seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "table5":
		bits := 128
		if full {
			bits = 1024
		}
		r, err := experiments.Table5(bits, seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "lossgrid":
		bits, reps := 96, 2
		if full {
			bits, reps = 512, 5
		}
		r, err := experiments.LossGrid(prof, bits, reps, nil, seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "tenants":
		victims := 3
		if full {
			victims = 6
		}
		r, err := experiments.Tenants(prof, victims, nil, seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "exhaust":
		victims := 3
		if full {
			victims = 6
		}
		r, err := experiments.Exhaust(prof, victims, seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "nvmf":
		r, err := experiments.Nvmf(prof, seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "pythia":
		r, err := experiments.PythiaCompare(64, seed)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "fig12":
		r := experiments.Fig12(prof, seed)
		return emit(r, r.Render)
	case "fig13":
		if full {
			perClass = 395 // the paper's 6720-trace corpus
		}
		r, err := experiments.Fig13(prof, perClass, seed)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "defense":
		r, err := experiments.DefenseEval(prof, seed)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "defgrid":
		r, err := experiments.DefGrid(prof, seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "redn":
		r, err := experiments.Redn(prof, seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	case "clos":
		r, err := experiments.Clos(prof, full, seed, workers)
		if err != nil {
			return err
		}
		return emit(r, r.Render)
	default:
		return fmt.Errorf("unknown experiment (try table1 table3 fig4..fig13 table5 lossgrid tenants exhaust nvmf pythia defense defgrid redn clos)")
	}
	return nil
}

// runTrace handles the trace subcommand: run one experiment rig with the
// flight recorder attached, then export Chrome trace JSON (default) or the
// text timeline. A summary of the run and the metrics digest go to stderr so
// `-o -` keeps stdout machine-readable.
func runTrace(argv []string, prof nic.Profile, seed int64) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "trace.json", "output path (- for stdout)")
	text := fs.Bool("text", false, "emit the text timeline instead of Chrome JSON")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: ragnar trace [-o out.json] [-text] <fig9|intermr|intramr|lossgrid>")
	}
	o, err := experiments.Trace(fs.Arg(0), prof, seed)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *text {
		err = o.WriteText(w)
	} else {
		err = o.WriteChrome(w)
	}
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, o.Summary)
	fmt.Fprint(os.Stderr, trace.Summary(o.Recorder))
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "trace: %d events (%d dropped by ring) -> %s\n",
			o.Recorder.Len(), o.Recorder.Dropped(), *out)
	}
	return nil
}

// pick returns all NICs in full mode, else just the selected one.
func pick(prof nic.Profile, full bool) []nic.Profile {
	if full {
		return nic.PaperProfiles
	}
	return []nic.Profile{prof}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ragnar: "+format+"\n", args...)
	os.Exit(1)
}
