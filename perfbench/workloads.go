package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/index"
	"repro/internal/machine"
)

// outcome is the part of an apps result the benchmark checks and reports.
// msgs, bytes and peakWire are -1 where the apps result does not carry
// them (smoothing reports neither totals nor peaks; PIC no peak).
type outcome struct {
	checksum       float64
	maxErr         float64
	msgs, bytes    int64
	peakWire       int64
	finalEpoch     int
	particlesStart float64
	particlesEnd   float64
	meanImbalance  float64
}

// workload is one named input set: how to run it through internal/apps,
// through the traced driver, and what every run must satisfy.
type workload struct {
	name string
	// iters is the iteration count of a full run.
	iters int
	// work is the stated work of one run, the numerator of updates_per_s.
	work float64
	// apps runs the workload through its internal/apps entry point; n is
	// the iteration count (0 for the set-up run), validate compares
	// against the serial reference.
	apps func(w *scratch, n int, validate bool) (outcome, error)
	// reference gives the checksum every timed run must reproduce bit for
	// bit, and the gate is the validated run that must give MaxErr == 0.
	reference func(w *scratch) (outcome, error)
	gate      func(w *scratch) (outcome, error)
	// probe, when set, is the known-defect operation (see NOTES.md).
	probe func(w *scratch) error
	// check validates one timed run against the reference.
	check func(o, ref outcome) error
	// drive runs the traced driver; replay the layer replay.
	drive  func(w *scratch, o driverOpts) (driverResult, error)
	replay func(d driverResult) (replayResult, error)
}

// scratch owns the scratch directory (inside the checkout) that checkpoint
// directories are made in.
type scratch struct{ dir string }

func (w *scratch) ckptDir() (string, func(), error) {
	d, err := os.MkdirTemp(w.dir, "ckpt-")
	if err != nil {
		return "", nil, err
	}
	return d, func() { os.RemoveAll(d) }, nil
}

// Workload sizes.  See NOTES.md for why each workload exists.
const (
	adiN, adiIters, adiP = 512, 40, 4

	picCells, picSteps, picP = 512, 600, 4
	picDriftFrac             = 0.3

	smN, smSteps, smP, smJoin, smJoinAt = 1024, 200, 3, 1, 100
	smCkptEvery, smServers              = 20, 2
	smCommTimeout, smCommRetries        = 2 * time.Second, 2
)

// Defaults internal/apps applies to PICConfig, repeated for the driver.
const picInitPerCell, picWorkPerParticle, picEvery, picThreshold = 64, 40, 10, 1.1

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkChecksum(o, ref outcome) error {
	if !sameBits(o.checksum, ref.checksum) {
		return fmt.Errorf("checksum %v differs from the reference %v", o.checksum, ref.checksum)
	}
	return nil
}

func checkTraffic(o, ref outcome) error {
	if o.msgs != ref.msgs || o.bytes != ref.bytes {
		return fmt.Errorf("traffic %d msgs / %d B differs from the reference %d / %d", o.msgs, o.bytes, ref.msgs, ref.bytes)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

var workloads = []workload{adiDynamic(), picBBlock(), smoothElastic()}

func adiDynamic() workload {
	run := func(_ *scratch, n int, validate bool) (outcome, error) {
		r, err := apps.RunADI(apps.ADIConfig{NX: adiN, NY: adiN, Iters: n, P: adiP, Mode: apps.ADIDynamic, Validate: validate})
		return outcome{checksum: r.Checksum, maxErr: r.MaxErr, msgs: r.Msgs, bytes: r.Bytes, peakWire: r.PeakWireBytes, finalEpoch: r.FinalEpoch}, err
	}
	return workload{
		name:      "adi-dynamic",
		iters:     adiIters,
		work:      2 * adiN * adiN * adiIters,
		apps:      run,
		reference: func(w *scratch) (outcome, error) { return run(w, adiIters, false) },
		gate:      func(w *scratch) (outcome, error) { return run(w, adiIters, true) },
		check: func(o, ref outcome) error {
			return firstErr(checkChecksum(o, ref), checkTraffic(o, ref))
		},
		drive: func(_ *scratch, o driverOpts) (driverResult, error) {
			return driveADI(adiN, adiN, adiIters, adiP, o)
		},
		replay: func(d driverResult) (replayResult, error) {
			return replay(adiP, index.Dim(adiN, adiN), 1, d.chain, nil, 0, nil)
		},
	}
}

func picBBlock() workload {
	run := func(_ *scratch, n int, _ bool) (outcome, error) {
		r, err := apps.RunPIC(apps.PICConfig{NCell: picCells, Steps: n, P: picP, Rebalance: true, DriftFrac: picDriftFrac})
		return outcome{checksum: r.FieldChecksum, msgs: r.Msgs, bytes: r.Bytes, peakWire: -1, finalEpoch: r.FinalEpoch,
			particlesStart: r.ParticlesStart, particlesEnd: r.ParticlesEnd, meanImbalance: r.MeanImbalance}, err
	}
	return workload{
		name:      "pic-bblock",
		iters:     picSteps,
		work:      float64(picCells * picInitPerCell * picSteps),
		apps:      run,
		reference: func(w *scratch) (outcome, error) { return run(w, picSteps, false) },
		check: func(o, ref outcome) error {
			if o.particlesEnd != o.particlesStart {
				return fmt.Errorf("particles not conserved: %v -> %v", o.particlesStart, o.particlesEnd)
			}
			return firstErr(checkChecksum(o, ref), checkTraffic(o, ref))
		},
		drive: func(_ *scratch, o driverOpts) (driverResult, error) {
			return drivePIC(picParams{ncell: picCells, steps: picSteps, np: picP, drift: picDriftFrac,
				initPerCell: picInitPerCell, workPerParticle: picWorkPerParticle, every: picEvery, threshold: picThreshold}, o)
		},
		replay: func(d driverResult) (replayResult, error) {
			return replay(picP, index.Dim(picCells), 2, d.chain, nil, 0, nil)
		},
	}
}

func smoothElastic() workload {
	elastic := func(w *scratch, n int, validate bool) (outcome, error) {
		dir, done, err := w.ckptDir()
		if err != nil {
			return outcome{}, err
		}
		defer done()
		r, err := apps.RunSmoothing(apps.SmoothConfig{N: smN, Steps: n, P: smP, Mode: apps.SmoothColumns, Validate: validate,
			CkptDir: dir, CkptEvery: smCkptEvery, IO: apps.IOConfig{Servers: smServers, Redundancy: "parity"},
			CommTimeout: smCommTimeout, CommRetries: smCommRetries, Liveness: &machine.LivenessConfig{},
			Join: smJoin, Elastic: true, JoinAfterIter: smJoinAt})
		return outcome{checksum: r.Checksum, maxErr: r.MaxErr, msgs: -1, bytes: -1, peakWire: -1, finalEpoch: r.FinalEpoch}, err
	}
	static4 := func(validate bool) (outcome, error) {
		r, err := apps.RunSmoothing(apps.SmoothConfig{N: smN, Steps: smSteps, P: smP + smJoin, Mode: apps.SmoothColumns, Validate: validate})
		return outcome{checksum: r.Checksum, maxErr: r.MaxErr, msgs: -1, bytes: -1, peakWire: -1}, err
	}
	return workload{
		name:      "smooth-elastic",
		iters:     smSteps,
		work:      smN * smN * smSteps,
		apps:      elastic,
		reference: func(*scratch) (outcome, error) { return static4(false) },
		gate:      func(*scratch) (outcome, error) { return static4(true) },
		probe: func(w *scratch) error {
			_, err := elastic(w, smSteps, true)
			return err
		},
		check: func(o, ref outcome) error {
			if o.finalEpoch != 1 {
				return fmt.Errorf("final epoch %d, want 1 (the joiner was not admitted)", o.finalEpoch)
			}
			return checkChecksum(o, ref)
		},
		drive: func(w *scratch, o driverOpts) (driverResult, error) {
			dir, done, err := w.ckptDir()
			if err != nil {
				return driverResult{}, err
			}
			defer done()
			o.ckptDir = dir
			return driveSmooth(smoothParams{n: smN, steps: smSteps, np: smP, join: smJoin, joinAfter: smJoinAt,
				ckptEvery: smCkptEvery, servers: smServers, commTimeout: smCommTimeout, commRetries: smCommRetries}, o)
		},
		replay: func(d driverResult) (replayResult, error) {
			return replay(smP+smJoin, index.Dim(smN, smN), 2, nil, d.ckptDists, smServers, []int{1, 1})
		},
	}
}
