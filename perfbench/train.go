package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/rerank"
)

const trainListwise = "train-listwise"

const (
	// trainInstances is the fixed instance set one Fit trains on: four
	// gradient-accumulation batches of the default size 8. Small epochs give
	// the epoch-time percentiles several hundred samples per phase.
	trainInstances = 32
	// trainEpochs is the epoch count of one Fit.
	trainEpochs = 8
	// trainSetupRepeats is how many times a run generates the instance
	// set; setup_s is the median. One set-up takes tens of milliseconds, so
	// a few more than the serving workloads' repeats cost little and keep
	// the median steady.
	trainSetupRepeats = 9
	// epochWindow is the fewest epochs per window of the windowed
	// statistics: a window spans two to four seconds of fitting.
	//
	// The median epoch time is taken over the windows' means, not over the
	// epochs. The shared host runs a single thread at one of two speeds,
	// about twice apart, for seconds at a time, so the epoch times of a run
	// have two modes and the share of each varies from run to run. The
	// plain median falls in the sparse gap between the modes and moves
	// far more with that share than a mean does: over the same five runs
	// its spread was 17% of its median at one worker, that of the windowed
	// mean 9%.
	epochWindow = 100
)

// fitLog records one Fit's epochs through the trainer's observer hook.
type fitLog struct {
	tr                      *tracer
	durs, losses            []float64
	steps, dropped, skipped int
	instances               int
	fitStart, fitEnd        int64
}

func (l *fitLog) ObserveEpoch(es rerank.EpochStats) {
	l.durs = append(l.durs, es.Duration.Seconds())
	l.losses = append(l.losses, es.Loss)
	l.steps += es.Steps
	l.dropped += es.DroppedSteps
	l.skipped += es.SkippedInstances
	l.instances += es.Instances + es.SkippedInstances
	if l.tr != nil {
		end := nowNS()
		l.tr.add(span{Layer: "epoch", Start: end - int64(es.Duration), End: end})
	}
}

// fit trains a fresh RAPID-pro model on insts with the given worker count.
// The model's initial weights are fixed and the trainer seed (shuffles and
// the noise ξ) is the workload seed, so every Fit of a run performs the same
// arithmetic.
func fit(cfg core.Config, insts []*rerank.Instance, seed int64, workers int, tr *tracer) (*core.Model, *fitLog, error) {
	m := core.New(cfg)
	log := &fitLog{tr: tr}
	m.TrainCfg = rerank.TrainConfig{Epochs: trainEpochs, LR: 0.005, BatchSize: 8, ClipNorm: 5, Seed: seed, Workers: workers, Observer: log}
	log.fitStart = nowNS()
	err := m.Fit(insts)
	log.fitEnd = nowNS()
	if err != nil {
		return nil, nil, fmt.Errorf("fit: %w", err)
	}
	if tr != nil {
		tr.add(span{Layer: "fit", Start: log.fitStart, End: log.fitEnd})
	}
	return m, log, nil
}

// checkFit requires a sound Fit: every epoch loss finite, the final loss
// below the first epoch's, no dropped optimizer step, and the loss sequence
// bitwise equal to the reference Fit's (the trainer is deterministic for any
// worker count).
func checkFit(l, ref *fitLog) error {
	if len(l.losses) != trainEpochs {
		return fmt.Errorf("fit ran %d epochs, want %d", len(l.losses), trainEpochs)
	}
	for _, v := range l.losses {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fit: non-finite epoch loss %v", v)
		}
	}
	if last := l.losses[len(l.losses)-1]; !(last < l.losses[0]) {
		return fmt.Errorf("fit: final loss %v is not below the first epoch's %v", last, l.losses[0])
	}
	if l.dropped != 0 {
		return fmt.Errorf("fit: %d optimizer steps dropped", l.dropped)
	}
	if ref != nil {
		for e := range l.losses {
			if math.Float64bits(l.losses[e]) != math.Float64bits(ref.losses[e]) {
				return fmt.Errorf("fit: epoch %d loss %v differs from the reference fit's %v", e, l.losses[e], ref.losses[e])
			}
		}
	}
	return nil
}

// trainSetup generates the instance set.
func trainSetup() (core.Config, []*rerank.Instance, error) {
	c, err := buildCorpus()
	if err != nil {
		return core.Config{}, nil, err
	}
	if len(c.train) < trainInstances {
		return core.Config{}, nil, fmt.Errorf("corpus has %d training lists, want %d", len(c.train), trainInstances)
	}
	return c.cfg, c.train[:trainInstances], nil
}

// trainPhase fits repeatedly for dur with the given worker count.
type trainPhase struct {
	fits       []*fitLog
	model      *core.Model
	fitSeconds float64
	instEpochs int
	cpuNS      int64
	alloc      uint64
	gcs        uint32
	gcPauseNS  uint64
}

func runTrainPhase(cfg core.Config, insts []*rerank.Instance, seed int64, workers int, dur time.Duration, ref *fitLog, tr *tracer) (*trainPhase, error) {
	runtime.GC()
	p := &trainPhase{}
	deadline := time.Now().Add(dur)
	for len(p.fits) == 0 || time.Now().Before(deadline) {
		if err := p.fitOnce(cfg, insts, seed, workers, ref, tr); err != nil {
			return nil, err
		}
		if ref == nil {
			ref = p.fits[0]
		}
	}
	return p, nil
}

// fitOnce runs one Fit, checks it against ref (no reference when nil) and
// adds it, with the CPU time, allocation and GC work around it, to p.
func (p *trainPhase) fitOnce(cfg core.Config, insts []*rerank.Instance, seed int64, workers int, ref *fitLog, tr *tracer) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTimeNS()
	m, log, err := fit(cfg, insts, seed, workers, tr)
	if err != nil {
		return err
	}
	p.cpuNS += cpuTimeNS() - cpu0
	runtime.ReadMemStats(&after)
	p.alloc += after.TotalAlloc - before.TotalAlloc
	p.gcs += after.NumGC - before.NumGC
	p.gcPauseNS += after.PauseTotalNs - before.PauseTotalNs
	if err := checkFit(log, ref); err != nil {
		return err
	}
	p.model = m
	p.fits = append(p.fits, log)
	p.fitSeconds += float64(log.fitEnd-log.fitStart) / 1e9
	p.instEpochs += log.instances
	return nil
}

func (p *trainPhase) epochMS() []float64 {
	var out []float64
	for _, f := range p.fits {
		for _, d := range f.durs {
			out = append(out, d*1e3)
		}
	}
	return out
}

func (p *trainPhase) skipped() int {
	n := 0
	for _, f := range p.fits {
		n += f.skipped
	}
	return n
}

// runTrain is one untraced train-listwise run. Its end-to-end metrics map
// onto the shared names: an op is one epoch over the instance set for the
// latency metrics (lo fits with one worker, hi with GOMAXPROCS), and an
// instance-epoch for max_rps, cpu_ms_per_op and alloc_kb_per_op. The two
// worker counts take turns Fit by Fit over the whole run, so both see the
// same mix of the shared host's slow spells (see alternate).
func runTrain(seed int64, secs int) (*result, error) {
	var setups []float64
	var cfg core.Config
	var insts []*rerank.Instance
	for i := 0; i < trainSetupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = epoch
		}
		var err error
		if cfg, insts, err = trainSetup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	lo, hi := &trainPhase{}, &trainPhase{}
	runtime.GC()
	deadline := time.Now().Add(time.Duration(secs) * time.Second)
	var ref *fitLog
	for len(hi.fits) == 0 || time.Now().Before(deadline) {
		if err := lo.fitOnce(cfg, insts, seed, 1, ref, nil); err != nil {
			return nil, err
		}
		ref = lo.fits[0]
		if err := hi.fitOnce(cfg, insts, seed, runtime.GOMAXPROCS(0), ref, nil); err != nil {
			return nil, err
		}
	}
	return trainResult(setups, lo, hi), nil
}

func trainResult(setups []float64, lo, hi *trainPhase) *result {
	loMS, hiMS := lo.epochMS(), hi.epochMS()
	fmt.Fprintf(os.Stderr, "train lo: %d fits; hi: %d fits, %.1f inst-epochs/s\n", len(lo.fits), len(hi.fits), float64(hi.instEpochs)/hi.fitSeconds)
	ops := float64(hi.instEpochs)
	res := &result{Correct: true, Attempted: lo.instEpochs + hi.instEpochs, Failed: lo.skipped() + hi.skipped()}
	res.add("setup_s", median(setups), "s")
	res.add("p50_ms_lo", windowedMean(loMS, epochWindow), "ms")
	res.add("p95_ms_lo", windowedQuantile(loMS, 0.95, epochWindow), "ms")
	res.add("p50_ms_hi", windowedMean(hiMS, epochWindow), "ms")
	res.add("p95_ms_hi", windowedQuantile(hiMS, 0.95, epochWindow), "ms")
	res.add("max_rps", ops/hi.fitSeconds, "1/s")
	res.add("cpu_ms_per_op", float64(hi.cpuNS)/1e6/ops, "ms")
	res.add("alloc_kb_per_op", float64(hi.alloc)/1024/ops, "KiB")
	res.add("peak_rss_mb", peakRSSMB(), "MiB")
	return res
}
