package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/eval"
	"repro/internal/nn"
)

// scale fixes the sizes of every workload. The benchmark runs fullScale;
// the smoke tests shrink it.
type scale struct {
	trainN, testN, epochs int // the bench-1 models
	deepTrainN, deepTestN int // the bench-3 model of the offline chip
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	// serveSurfCalls is how many one-repeat surfaces of the served model a
	// serving workload times after each set-up.
	serveSurfCalls int
	// chipCopies and chipFrames size the offline chip run; serveChipFrames
	// is the 16-copy bench-1 chip run of the serving workloads.
	chipCopies, chipFrames, serveChipFrames int
	// checkFrames leading chip frames are replayed on the dense simulator.
	checkFrames int
	warmup      time.Duration
}

var fullScale = scale{
	trainN: 2000, testN: 500, epochs: 2,
	deepTrainN: 600, deepTestN: 300,
	setups: 3, serveSurfCalls: 2,
	chipCopies: 66, chipFrames: 42, serveChipFrames: 400,
	checkFrames: 3, warmup: time.Second,
}

// opts is one run's settings.
type opts struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	sc      scale
}

// fixedSeed is the repository's default seed. The digit corpus, the trained
// models and the simulated chips derive from it, so every run serves and
// simulates the same models and the chip's simulated counts repeat exactly
// across runs; the workload seed varies the traffic and the surface's
// sampled copies. A per-run model would move the early-exit and spike rates
// the timings depend on.
var fixedSeed = eval.DefaultOptions().Seed

func (o opts) runner(train, test int) *eval.Runner {
	return eval.NewRunner(eval.Options{Seed: fixedSeed, TrainN: train, TestN: test, EpochsN: o.sc.epochs}, nil)
}

func runWorkload(name string, o opts) (*report, error) {
	switch name {
	case "serve_exact":
		return runServing(o)
	case "offline":
		return runOffline(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want serve_exact or offline)", name)
}

// runServing sets up the served model and fleet and sends the two steps.
// Set-up is data synthesis, training, plan compilation and fleet start.
// After each set-up it also times a surface of the served model and a block
// of frames of a 16-copy chip ensemble of it: spread over the run, the
// blocks see more of the machine's slow swings in speed than one would.
func runServing(o opts) (*report, error) {
	r := newReport()
	b1, _ := eval.BenchByID(1)
	var f *fleet
	var m *core.Model
	var test *dataset.Dataset
	var setups, trains []float64
	var surf surfaceOut
	var ch *chip
	var frames chipOut
	for i := 0; i < o.sc.setups; i++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		t := time.Now()
		run := o.runner(o.sc.trainN, o.sc.testN)
		_, test = run.Data(b1)
		tt := time.Now()
		mi, err := run.Model(b1, "biased")
		if err != nil {
			return nil, err
		}
		trains = append(trains, since(tt))
		if f, err = startFleet(mi.Net, o.traced); err != nil {
			return nil, err
		}
		setups = append(setups, since(t))
		if m != nil && !slices.Equal(m.Net.Weights(), mi.Net.Weights()) {
			r.problem(fmt.Errorf("set-up %d trained other weights than set-up 1", i+1))
		}
		m = mi

		for c := 0; c < o.sc.serveSurfCalls; c++ {
			runtime.GC()
			if err := surf.measure(m.Net, test, o.seed+1001+uint64(i*o.sc.serveSurfCalls+c), o.traced); err != nil {
				return nil, err
			}
		}
		if ch == nil {
			if ch, err = buildChip(m.Net, surfCopies, fixedSeed); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		ch.run(test.X, spf, o.sc.serveChipFrames/o.sc.setups, o.sc.checkFrames, &frames)
	}
	defer f.close()
	r.vals["setup_s"] = median(setups)
	r.vals["nn.train_s"] = median(trains)
	r.vals["train_samples_per_s"] = float64(o.sc.trainN*o.sc.epochs) / median(trains)
	r.surface(surf)
	r.chip(ch, frames, ch.lowerS, ch.annealS)

	t, err := newTraffic(f, test.X, o.seed)
	if err != nil {
		return nil, err
	}
	defer t.close()
	r.serve(t, o.seconds/2, o.sc.warmup, o.traced)
	plan := deploy.CompileQuant(m.Net)
	if o.traced {
		r.probes(plan, test.X, o.seed)
	}
	r.vals["peak_rss_mb"] = peakRSSMB()

	r.problem(t.check(plan))
	r.problem(ch.check(test.X, spf, frames))
	return r, nil
}

// runOffline is the tnrepro pipeline in timed phases: train three models,
// the accuracy surfaces of both bench-1 learners, and the 4092-core bench-3
// chip ensemble; then it serves the biased bench-1 model as runServing does.
// Set-up is data synthesis, plan compilation and the chip build.
func runOffline(o opts) (*report, error) {
	r := newReport()
	b1, _ := eval.BenchByID(1)
	b3, _ := eval.BenchByID(3)
	var r1, r3 *eval.Runner
	var dataS []float64
	for i := 0; i < o.sc.setups; i++ {
		runtime.GC()
		t := time.Now()
		r1, r3 = o.runner(o.sc.trainN, o.sc.testN), o.runner(o.sc.deepTrainN, o.sc.deepTestN)
		r1.Data(b1)
		r3.Data(b3)
		dataS = append(dataS, since(t))
	}

	jobs := []struct {
		run     *eval.Runner
		b       eval.Bench
		penalty string
	}{{r1, b1, "none"}, {r1, b1, "biased"}, {r3, b3, "biased"}}
	nets := make([]*nn.Network, len(jobs))
	var samples int
	var wall float64
	for i, j := range jobs {
		runtime.GC()
		t := time.Now()
		m, err := j.run.Model(j.b, j.penalty)
		if err != nil {
			return nil, err
		}
		dt := since(t)
		train, _ := j.run.Data(j.b)
		samples += train.Len() * o.sc.epochs
		wall += dt
		r.detail[fmt.Sprintf("nn.train_s.bench%d_%s", j.b.ID, j.penalty)] = dt
		nets[i] = m.Net
	}
	tea, biased, deep := nets[0], nets[1], nets[2]
	r.vals["train_samples_per_s"] = float64(samples) / wall
	r.vals["nn.train_s"] = r.detail["nn.train_s.bench1_biased"].(float64)

	// Each chip build is followed by a block of the timed frames on it and
	// by a one-repeat surface of each learner, as in runServing; every build
	// samples the same copies, so the blocks continue one frame sequence.
	_, test1 := r1.Data(b1)
	_, test3 := r3.Data(b3)
	var ch *chip
	var setups, lower, anneal []float64
	var surf surfaceOut
	var frames chipOut
	for i := 0; i < o.sc.setups; i++ {
		ch = nil
		runtime.GC()
		t := time.Now()
		var err error
		if ch, err = buildChip(deep, o.sc.chipCopies, fixedSeed); err != nil {
			return nil, err
		}
		setups = append(setups, dataS[i]+since(t))
		lower, anneal = append(lower, ch.lowerS), append(anneal, ch.annealS)

		runtime.GC()
		ch.run(test3.X, 1, o.sc.chipFrames/o.sc.setups, o.sc.checkFrames, &frames)
		for _, net := range []*nn.Network{tea, biased} {
			runtime.GC()
			if err := surf.measure(net, test1, o.seed+1001+uint64(i), o.traced); err != nil {
				return nil, err
			}
		}
	}
	r.vals["setup_s"] = median(setups)
	r.surface(surf)
	r.chip(ch, frames, median(lower), median(anneal))

	f, err := startFleet(biased, o.traced)
	if err != nil {
		return nil, err
	}
	defer f.close()
	t, err := newTraffic(f, test1.X, o.seed)
	if err != nil {
		return nil, err
	}
	defer t.close()
	r.serve(t, o.seconds/2, o.sc.warmup, o.traced)
	plan := deploy.CompileQuant(biased)
	if o.traced {
		r.probes(plan, test1.X, o.seed)
	}
	r.vals["peak_rss_mb"] = peakRSSMB()

	r.problem(t.check(plan))
	r.problem(ch.check(test3.X, 1, frames))
	return r, nil
}

// senders is the generator's connection and goroutine count: one per CPU
// the process may use.
func senders() int { return runtime.GOMAXPROCS(0) }
