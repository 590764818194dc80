package main

import (
	"fmt"

	"github.com/thu-has/ragnar/internal/appnvmf"
	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/classifier"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/defense"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sidechan"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/stats"
	"github.com/thu-has/ragnar/internal/telemetry"
	"github.com/thu-has/ragnar/internal/verbs"
)

// profile is the adapter every workload simulates.
var profile = nic.CX5

// workloads maps a workload name to the function that runs one unit of it.
// Every unit derives all its inputs from u.seed, so repeating a unit with
// the same seed replays the same simulation.
var workloads = map[string]func(u *unit) error{
	"snoop":  snoopUnit,
	"covert": covertUnit,
	"nvmf":   nvmfUnit,
}

// ---------------------------------------------------------------------------
// snoop: Figure 13 trace collection, then classifier training.
// ---------------------------------------------------------------------------

// snoopPerClass is how many traces a unit captures per victim offset (17
// candidate offsets).
const snoopPerClass = 1

func snoopUnit(u *unit) error {
	cfg := sidechan.DefaultSnoopConfig(profile)
	ds := &classifier.Dataset{Classes: len(cfg.Candidates)}
	for class, off := range cfg.Candidates {
		for t := 0; t < snoopPerClass; t++ {
			tr, err := snoopTrace(u, cfg, sim.DeriveSeed(u.seed, uint64(class*snoopPerClass+t)), off)
			if err != nil {
				return fmt.Errorf("snoop class %d: %w", class, err)
			}
			ds.Add(tr, class)
			u.hashFloats(tr...)
			u.ops++
		}
	}
	var nc *classifier.NearestCentroid
	var cnn *classifier.CNN
	err := u.measure("classifier.train", func() (err error) {
		if nc, err = classifier.TrainNearestCentroid(ds); err != nil {
			return err
		}
		cnn, err = classifier.TrainCNN(ds, classifier.DefaultCNNConfig())
		return err
	})
	if err != nil {
		return err
	}
	for _, x := range ds.X {
		u.hashInts(nc.Predict(x), cnn.Predict(x))
	}
	ncAcc, _ := classifier.Evaluate(nc, ds)
	cnnAcc, _ := classifier.Evaluate(cnn, ds)
	u.note("snoop: %d traces x %d points; training-set accuracy centroid %.2f, CNN %.2f (17 classes)",
		ds.Len(), len(cfg.Observation), ncAcc, cnnAcc)
	return nil
}

// snoopTrace builds one fresh 3-client snoop rig (the construction
// sidechan.NewSnooper performs) and captures one trace on it.
func snoopTrace(u *unit, cfg sidechan.SnoopConfig, seed int64, victimOff uint64) ([]float64, error) {
	cfg.Seed = seed
	lc := lab.DefaultConfig(cfg.Profile)
	lc.Seed = seed
	lc.Clients = 3
	r, err := u.newRig(lc)
	if err != nil {
		return nil, err
	}
	var s *sidechan.Snooper
	err = u.doSetup("sidechan.setup", func() (err error) {
		s, err = sidechan.NewSnooperOn(r.c, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	u.start(r)
	var tr []float64
	err = u.measure("sidechan.capture", func() (err error) {
		tr, err = s.CaptureTrace(victimOff)
		return err
	})
	if err != nil {
		return nil, err
	}
	if u.traced {
		// Measure returns exactly ProbesPerOffset samples per offset or an
		// error, so this is the number of ULI samples the capture took.
		u.layers.probes += len(cfg.Observation) * cfg.ProbesPerOffset
	}
	if err := u.finish(r); err != nil {
		return nil, err
	}
	return tr, checkFinite(tr, len(cfg.Observation))
}

// ---------------------------------------------------------------------------
// covert: the Table V inter-MR and intra-MR channels.
// ---------------------------------------------------------------------------

// Payload lengths: each channel transmits one seeded payload on one
// long-lived rig.
const (
	interMRBits = 512
	intraMRBits = 256
	// covertMaxBER is the error-rate bound the covert package's own tests
	// hold every channel to.
	covertMaxBER = 0.15
)

func covertUnit(u *unit) error {
	channels := []struct {
		name string
		bits int
		open func(*lab.Cluster) (*covert.ULIChannel, error)
	}{
		{"covert.inter_mr", interMRBits, covert.NewInterMRChannelOn},
		{"covert.intra_mr", intraMRBits, covert.NewIntraMRChannelOn},
	}
	for i, chn := range channels {
		lc := lab.DefaultConfig(profile)
		lc.Seed = sim.DeriveSeed(u.seed, uint64(i))
		r, err := u.newRig(lc)
		if err != nil {
			return err
		}
		var ch *covert.ULIChannel
		if err := u.doSetup(chn.name+".setup", func() (err error) {
			ch, err = chn.open(r.c)
			return err
		}); err != nil {
			return err
		}
		ch.Trace = r.rec
		payload := bitstream.RandomBits(uint64(sim.DeriveSeed(u.seed, uint64(16+i))), chn.bits)
		u.start(r)
		var run *covert.ULIRun
		if err := u.measure("covert.transmit", func() (err error) {
			run, err = ch.Transmit(payload)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", chn.name, err)
		}
		res := run.Result
		if res.ErrorRate > covertMaxBER {
			return fmt.Errorf("%s: BER %.3f above %.2f", chn.name, res.ErrorRate, covertMaxBER)
		}
		u.hashInts(len(run.Decoded))
		for _, b := range run.Decoded {
			u.hashInts(int(b))
		}
		u.hashFloats(res.ErrorRate, res.BandwidthBps, res.EffectiveBps)
		u.hashFloats(run.SymbolMeans...)
		u.note("%s: %d bits, BER %.2f%%, %.1f Kbps raw, %.1f Kbps effective",
			chn.name, len(payload), 100*res.ErrorRate, res.BandwidthBps/1e3, res.EffectiveBps/1e3)
		u.ops += len(payload)
		if u.traced {
			u.layers.bits += len(payload)
			u.layers.berSum += res.ErrorRate
			u.layers.channels++
			u.layers.probes += len(run.Samples)
		}
		if err := u.finish(r); err != nil {
			return fmt.Errorf("%s: %w", chn.name, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// nvmf: the NVMe-oF victim's baseline and benign-loss cells.
// ---------------------------------------------------------------------------

// These mirror the nvmf experiment's cell parameters.
const (
	nvmfNamespaceBytes = 2 << 20
	nvmfTargetDepth    = 64
	nvmfWindow         = 150 * sim.Microsecond
	nvmfTrainWins      = 8
	nvmfScoreWins      = 8
	nvmfWarmup         = 200 * sim.Microsecond
	nvmfRetryTimeout   = 200 * sim.Microsecond
	nvmfRetryLimit     = 1000
	nvmfLossProb       = 0.005
)

// nvmfCells is how many storage rigs a unit runs, alternating clean and
// lossy. One lossy rig's go-back-N recovery cost depends on where its
// seed happens to drop packets; several per unit average that out.
const nvmfCells = 6

func nvmfUnit(u *unit) error {
	for cell := 0; cell < nvmfCells; cell++ {
		loss := 0.0
		if cell%2 == 1 {
			loss = nvmfLossProb
		}
		if err := nvmfCell(u, sim.DeriveSeed(u.seed, uint64(cell)), loss); err != nil {
			return fmt.Errorf("nvmf cell %d: %w", cell, err)
		}
	}
	return nil
}

// nvmfCell runs one storage rig: warm-up as set-up, then a HARMONIC
// training phase and a scoring phase, every window snapshotted.
func nvmfCell(u *unit, seed int64, loss float64) error {
	lc := lab.DefaultConfig(profile)
	lc.Seed = seed
	r, err := u.newRig(lc)
	if err != nil {
		return err
	}
	c := r.c
	var tq *appnvmf.TargetQueue
	var ini *appnvmf.Initiator
	err = u.doSetup("appnvmf.setup", func() error {
		tgt, err := appnvmf.NewTarget(c.Server, nvmfNamespaceBytes)
		if err != nil {
			return err
		}
		if tq, err = tgt.Serve(nvmfTargetDepth); err != nil {
			return err
		}
		ini, err = appnvmf.NewInitiator(c.Clients[0], tq, appnvmf.DefaultWorkload(sim.DeriveSeed(seed, 1)))
		if err != nil {
			return err
		}
		for _, qp := range []*verbs.QP{ini.QP(), tq.QP()} {
			if err := qp.SetRetry(nvmfRetryTimeout, nvmfRetryLimit); err != nil {
				return err
			}
		}
		if loss > 0 {
			c.InjectLoss(sim.DeriveSeed(seed, 1<<32), loss)
		}
		ini.Start()
		c.RunFor(nvmfWarmup)
		ini.ResetLatencies()
		return nil
	})
	if err != nil {
		return err
	}
	u.start(r)
	vic := c.Clients[0].NIC()
	st0 := ini.Stats()
	var scores []float64
	var trainP99, scoreP99 float64
	var trainIOs uint64
	err = u.measure("appnvmf.cell", func() error {
		snap := func() (s telemetry.Snapshot) {
			u.span("telemetry.snap", func() error { s = telemetry.Snap(c.Eng, vic); return nil })
			if u.traced {
				u.layers.snaps++
			}
			return s
		}
		window := func() {
			u.span("appnvmf.window", func() error { c.RunFor(nvmfWindow); return nil })
		}
		series := []telemetry.Snapshot{snap()}
		for w := 0; w < nvmfTrainWins; w++ {
			window()
			series = append(series, snap())
		}
		var det *defense.Harmonic
		u.span("defense.train", func() error {
			det = defense.TrainHarmonic(telemetry.WindowedDeltas(series))
			return nil
		})
		trainIOs = ini.Stats().Completed - st0.Completed
		trainP99 = stats.Percentile(ini.Latencies(), 99)
		u.keepLatencies(ini.Latencies())
		ini.ResetLatencies()
		prev := series[len(series)-1]
		for w := 0; w < nvmfScoreWins; w++ {
			window()
			cur := snap()
			u.span("defense.score", func() error {
				scores = append(scores, det.Score(telemetry.Delta(prev, cur)))
				return nil
			})
			prev = cur
		}
		scoreP99 = stats.Percentile(ini.Latencies(), 99)
		u.keepLatencies(ini.Latencies())
		return nil
	})
	if err != nil {
		return err
	}
	ini.Stop()
	st := ini.Stats()
	ios := st.Completed - st0.Completed
	u.ops += int(ios)
	u.hashInts(int(trainIOs), int(ios))
	u.hashFloats(trainP99, scoreP99)
	u.hashFloats(scores...)
	maxScore := 0.0
	for _, sc := range scores {
		maxScore = max(maxScore, sc)
	}
	phase := sim.Duration(nvmfTrainWins+nvmfScoreWins) * nvmfWindow
	u.note("nvmf loss %.1f%%: %.1f kIOPS, p99 %.1f us (train) / %.1f us (score), max HARMONIC score %.2f",
		100*loss, float64(ios)/phase.Seconds()/1e3, trainP99, scoreP99, maxScore)
	if u.traced {
		u.layers.ios += ios
		u.layers.stalls += st.Stalls - st0.Stalls
		u.layers.dataErrs += st.DataErrors
	}
	if err := u.finish(r); err != nil {
		return err
	}
	st = ini.Stats()
	if st.DataErrors != 0 || st.ErrStatus != 0 || tq.Errors != 0 {
		return fmt.Errorf("data_errors=%d err_status=%d target_errors=%d", st.DataErrors, st.ErrStatus, tq.Errors)
	}
	return nil
}

// keepLatencies saves a phase's command latencies for the traced p99.
func (u *unit) keepLatencies(lats []float64) {
	if u.traced {
		u.layers.nvmfLats = append(u.layers.nvmfLats, lats...)
	}
}
