package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/truenorth"
)

// Surface shape of every workload: Fig. 7's copies x spf grid.
const surfCopies, surfSPF = 16, 4

// surfaceOut is the timed accuracy-surface phase over one or more learners.
type surfaceOut struct {
	// rates holds each deploy.Surface call's copy-frames per second: copies x
	// held-out images over its wall time.
	rates []float64
	// Traced runs only: engine.Grid and QuantPlan.Sample timed directly.
	gridS, sampleS float64
	samples        int
}

// measure times one one-repeat deploy.Surface call of net on the held-out
// set from seed. Each grid cell must beat chance. A traced run then times
// the surface's layers on their own.
func (out *surfaceOut) measure(net *nn.Network, test *dataset.Dataset, seed uint64, traced bool) error {
	cfg := deploy.EvalConfig{Repeats: 1, Seed: seed, Sample: deploy.DefaultSampleConfig()}
	t := time.Now()
	surf, err := deploy.Surface(net, test, surfCopies, surfSPF, cfg)
	if err != nil {
		return err
	}
	out.rates = append(out.rates, float64(surfCopies*test.Len())/since(t))
	chance := 1 / float64(test.NumClasses)
	for c, row := range surf.Mean {
		for s, acc := range row {
			if !(acc > chance) {
				return fmt.Errorf("surface: accuracy %.4f at %d copies, spf %d is not above chance %.2f", acc, c+1, s+1, chance)
			}
		}
	}
	if traced {
		return out.timeLayers(net, test, seed)
	}
	return nil
}

// timeLayers times the two layers deploy.Surface spends its time in, copy
// sampling and engine.Grid, by calling them directly on one repeat of the
// same surface shape. The accuracies it gives are not compared with the
// surface's: that would pin Surface's stream layout, not its correctness.
func (out *surfaceOut) timeLayers(net *nn.Network, test *dataset.Dataset, seed uint64) error {
	plan := deploy.CompileQuant(net)
	src := rng.NewPCG32(seed, 11)
	preds := make([]engine.TickPredictor, surfCopies)
	t := time.Now()
	for c := range preds {
		preds[c] = &deploy.FastPredictor{Net: plan.Sample(src.Split(uint64(c)), deploy.DefaultSampleConfig())}
	}
	out.sampleS += since(t)
	out.samples += surfCopies
	t = time.Now()
	_, err := engine.Grid(preds, test.X, test.Y, surfSPF, src.Split(1<<32), engine.Config{})
	out.gridS += since(t)
	return err
}

// chip is a sampled ensemble lowered onto one simulated chip with the anneal
// placer and the NoC observer attached.
type chip struct {
	nets []*deploy.SampledNet
	seed uint64
	cn   *deploy.ChipNet
	src  *rng.PCG32 // the frames' input spike stream
	// Wall times of lowering and annealing.
	lowerS, annealS float64
}

// buildChip compiles net, samples copies and builds the chip through the two
// public steps of deploy.BuildChipEnsemblePlaced with PlacerAnneal, timing
// each.
func buildChip(net *nn.Network, copies int, seed uint64) (*chip, error) {
	plan := deploy.CompileQuant(net)
	root := rng.NewPCG32(seed, 11)
	c := &chip{seed: seed, src: rng.NewPCG32(seed, 13)}
	for k := 0; k < copies; k++ {
		c.nets = append(c.nets, plan.Sample(root.Split(uint64(k)), deploy.DefaultSampleConfig()))
	}
	t := time.Now()
	var err error
	if c.cn, err = deploy.BuildChipEnsemble(c.nets, deploy.MapSigned, seed); err != nil {
		return nil, err
	}
	c.lowerS = since(t)
	t = time.Now()
	p, _, err := truenorth.PlaceAnneal(c.cn.Traffic(), c.cn.Chip.NumCores(), seed)
	if err != nil {
		return nil, err
	}
	c.annealS = since(t)
	c.cn.Placed = p
	return c, c.cn.Chip.SetNoC(p)
}

// chipOut is the timed run of a chip. The counts are simulated and repeat
// exactly in every run.
type chipOut struct {
	frames int
	// frameS holds each frame's wall time.
	frameS                         []float64
	ticks, spikes, synEvents, hops int64
	// The leading frames' class counts and activity, kept for the check.
	counts [][]int64
	stats  []truenorth.Stats
}

// run classifies the next frames inputs (cycling) on the event-driven
// simulator, continuing the chip's frame sequence, and keeps the first keep
// frames of the sequence for the check.
func (c *chip) run(inputs [][]float64, spf, frames, keep int, out *chipOut) {
	for i := 0; i < frames; i++ {
		f := out.frames
		t := time.Now()
		counts := c.cn.Frame(inputs[f%len(inputs)], spf, c.src)
		out.frameS = append(out.frameS, since(t))
		s := c.cn.Chip.Stats() // Frame resets activity, so this is one frame's
		out.frames++
		out.ticks += s.Ticks
		out.spikes += s.Spikes
		out.synEvents += s.SynEvents
		out.hops += c.cn.Chip.NoC().Hops
		if f < keep {
			out.counts = append(out.counts, counts)
			out.stats = append(out.stats, s)
		}
	}
}

// check replays the kept frames on a twin chip built from the same copies and
// seed, driven by the dense reference simulator, and requires identical
// class counts and activity.
func (c *chip) check(inputs [][]float64, spf int, out chipOut) error {
	twin, err := deploy.BuildChipEnsemble(c.nets, deploy.MapSigned, c.seed)
	if err != nil {
		return err
	}
	src := rng.NewPCG32(c.seed, 13)
	for f := range out.counts {
		counts := twin.FrameDense(inputs[f%len(inputs)], spf, src)
		if !slices.Equal(counts, out.counts[f]) || twin.Chip.Stats() != out.stats[f] {
			return fmt.Errorf("chip frame %d: Tick gave %v %+v, TickDense gave %v %+v",
				f, out.counts[f], out.stats[f], counts, twin.Chip.Stats())
		}
	}
	return nil
}

// probeFrameUS times SampledNet.Frame at the serving spf over images.
func probeFrameUS(plan *deploy.QuantPlan, images [][]float64, seed uint64, frames int) float64 {
	sn := plan.Sample(rng.NewPCG32(seed, 7), deploy.DefaultSampleConfig())
	fs := plan.NewFrameScratch()
	counts := make([]int64, plan.Classes())
	src := rng.NewPCG32(seed, 8)
	t := time.Now()
	for f := 0; f < frames; f++ {
		sn.Frame(fs, images[f%len(images)], spf, src, counts)
	}
	return since(t) / float64(frames) * 1e6
}

// probeWaves runs 16-copy ensemble requests gated at conf 0.99 (tnload's
// default) for a few request seeds over every image, through the offline
// path the checks use, and returns the mean copies voted and the share of
// items that exited early.
func probeWaves(plan *deploy.QuantPlan, images [][]float64, seed uint64, seeds int) (copiesMean, exitRate float64) {
	const copies, conf = 16, 0.99
	var used, exits, items int
	for s := 0; s < seeds; s++ {
		reqSeed := rng.SplitMix64(seed + uint64(s))
		cache := newCopyCache(plan, reqSeed)
		for _, x := range images {
			res := expect(plan, cache, classifyRequest(reqSeed, x, copies, conf))
			used += res.CopiesUsed
			if res.CopiesUsed < copies {
				exits++
			}
			items++
		}
	}
	return float64(used) / float64(items), float64(exits) / float64(items)
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
