package nn

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// randomNet builds a randomized network for cross-checking: random block
// geometry (including deep variants whose hidden windows overlap, the case
// where gradient scatter order matters) and randomized training knobs
// (MuOffset, SigmaFloor, SigmaConst).
func randomNet(src *rng.PCG32) *Network {
	side := 6 + rng.Intn(src, 5) // 6..10 input grid
	block := 2 + rng.Intn(src, 3)
	stride := 1 + rng.Intn(src, block)
	arch := &Arch{
		Name: "rand", InputH: side, InputW: side,
		Block: block, Stride: stride,
		CoreSize: block*block + rng.Intn(src, 9),
		Classes:  2 + rng.Intn(src, 3),
		Tau:      4 + rng.Float64(src)*8,
	}
	// Sometimes add a hidden window layer (overlapping when stride < size).
	gr, _ := dataset.BlockSpec{Height: side, Width: side, Block: block, Stride: stride}.GridDims()
	if gr >= 2 && rng.Bernoulli(src, 0.5) {
		size := 2
		arch.Windows = []Window{{Size: size, Stride: 1}}
	}
	if arch.Validate() != nil || arch.TotalCores() == 0 {
		arch.Windows = nil
	}
	// The readout needs at least Classes exported neurons.
	if last := arch.CoresPerLayer()[len(arch.CoresPerLayer())-1]; last*arch.CoreSize < arch.Classes {
		arch.Classes = 2
	}
	net, err := arch.Build(src, 1+rng.Float64(src))
	if err != nil {
		panic(err)
	}
	net.MuOffset = 0
	if rng.Bernoulli(src, 0.4) {
		net.MuOffset = 0.5
	}
	if rng.Bernoulli(src, 0.2) {
		net.SigmaFloor = 0
	}
	net.SigmaConst = rng.Bernoulli(src, 0.3)
	return net
}

// randomInputs draws b inputs matching the net's input width, with exact
// zeros at roughly the digits corpus' rate.
func randomInputs(src *rng.PCG32, net *Network, b int) ([][]float64, []int) {
	dim := net.Layers[0].InDim
	xs := make([][]float64, b)
	ys := make([]int, b)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			if rng.Bernoulli(src, 0.6) {
				x[j] = rng.Float64(src)
			}
		}
		xs[i] = x
		ys[i] = rng.Intn(src, net.Readout.Classes)
	}
	return xs, ys
}

// refShardRun is the sample-at-a-time reference the batched shard replaced:
// per-sample forward, readout loss gradient, backward — the exact loop the
// pre-batching trainer ran per worker.
func refShardRun(net *Network, g *netGrads, inputs [][]float64, labels []int, idx []int) (loss float64, correct int) {
	s := net.newScratch()
	g.zero()
	for _, si := range idx {
		out := net.forward(s, inputs[si])
		net.Readout.Scores(s.scores, out)
		if tensor.ArgMax(s.scores) == labels[si] {
			correct++
		}
		loss += net.Readout.LossGrad(s.scores, s.probs, labels[si], s.dAct[len(net.Layers)])
		net.backward(s, g)
	}
	return loss, correct
}

// zeroEdges rewrites a random net and its inputs to hit every exact-zero
// case the batched kernels treat differently from the per-sample reference
// (which skips x == 0, w == 0 and da == 0 terms): +0 and -0 weights and
// biases, an all-zero input sample (with SigmaFloor = 0: sigma == 0), an
// input feature that is zero in every sample, and samples whose upstream
// gradient is exactly zero — a readout temperature high enough that the
// softmax rounds to one-hot, with those samples labelled as predicted.
func zeroEdges(src *rng.PCG32, net *Network, inputs [][]float64, labels []int) {
	negZero := math.Copysign(0, -1)
	for _, l := range net.Layers {
		for _, c := range l.Cores {
			for i := range c.W.Data {
				switch rng.Intn(src, 8) {
				case 0:
					c.W.Data[i] = 0
				case 1:
					c.W.Data[i] = negZero
				}
			}
			for i := range c.Bias {
				switch rng.Intn(src, 4) {
				case 0:
					c.Bias[i] = 0
				case 1:
					c.Bias[i] = negZero
				}
			}
		}
	}
	clear(inputs[rng.Intn(src, len(inputs))])
	if rng.Bernoulli(src, 0.5) {
		net.SigmaFloor = 0
	}
	k := rng.Intn(src, len(inputs[0]))
	for _, x := range inputs {
		x[k] = 0
	}
	net.Readout.Tau = 1e6
	for s, x := range inputs {
		if rng.Bernoulli(src, 0.5) {
			labels[s] = tensor.ArgMax(net.Predict(x))
		}
	}
}

// sameBits reports whether a and b are the same float64 bit pattern, so +0
// and -0 count as different.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBatchedShardMatchesReference is the batched-vs-reference cross-check
// of the deterministic-numerics contract: over 60 randomized networks (half
// of them rewritten by zeroEdges) and shards of 1 to 17 samples, the
// batched forward/backward shard must reproduce the per-sample reference
// bit for bit — activations, mu/sigma panels, loss, accuracy, and every
// weight/bias gradient, including overlapping-window input-gradient scatter.
func TestBatchedShardMatchesReference(t *testing.T) {
	src := rng.NewPCG32(20160605, 9)
	for trial := 0; trial < 60; trial++ {
		net := randomNet(src)
		b := 1 + rng.Intn(src, 17) // production shards hold 16
		inputs, labels := randomInputs(src, net, b)
		if rng.Bernoulli(src, 0.5) {
			zeroEdges(src, net, inputs, labels)
		}
		idx := make([]int, b)
		for i := range idx {
			idx[i] = i
		}

		gRef := net.newGrads()
		refLoss, refCorrect := refShardRun(net, gRef, inputs, labels, idx)

		sh := &trainShard{g: net.newGrads(), bs: net.newBatchScratch(b, true)}
		sh.run(net, inputs, labels, idx)

		if !sameBits(sh.loss, refLoss) || sh.correct != refCorrect {
			t.Fatalf("trial %d: shard loss/correct %v/%d, ref %v/%d", trial, sh.loss, sh.correct, refLoss, refCorrect)
		}
		// Panels: compare the batched forward against per-sample scratches.
		ref := net.newScratch()
		for s, si := range idx {
			net.forward(ref, inputs[si])
			for li := range net.Layers {
				for j := range ref.full[li] {
					if got := sh.bs.full[li].At(s, j); !sameBits(got, ref.full[li][j]) {
						t.Fatalf("trial %d: act[%d][%d] sample %d = %v, ref %v", trial, li, j, s, got, ref.full[li][j])
					}
					if got := sh.bs.mu[li].At(s, j); !sameBits(got, ref.mu[li][j]) {
						t.Fatalf("trial %d: mu[%d][%d] sample %d = %v, ref %v", trial, li, j, s, got, ref.mu[li][j])
					}
					if got := sh.bs.sigma[li].At(s, j); !sameBits(got, ref.sigma[li][j]) {
						t.Fatalf("trial %d: sigma[%d][%d] sample %d = %v, ref %v", trial, li, j, s, got, ref.sigma[li][j])
					}
				}
			}
		}
		// Gradients, element by element.
		for li := range gRef.layers {
			for ci := range gRef.layers[li] {
				rw, bw := gRef.layers[li][ci], sh.g.layers[li][ci]
				for i := range rw.W.Data {
					if !sameBits(bw.W.Data[i], rw.W.Data[i]) {
						t.Fatalf("trial %d: layer %d core %d weight grad %d = %v, ref %v",
							trial, li, ci, i, bw.W.Data[i], rw.W.Data[i])
					}
				}
				for i := range rw.Bias {
					if !sameBits(bw.Bias[i], rw.Bias[i]) {
						t.Fatalf("trial %d: layer %d core %d bias grad %d = %v, ref %v",
							trial, li, ci, i, bw.Bias[i], rw.Bias[i])
					}
				}
			}
		}
	}
}

// TestBatchedShardPartialExports covers the Exports < Neurons layout the
// arch builder never produces but the data model allows: non-exported
// neurons must get zero upstream gradient in the batched path too.
func TestBatchedShardPartialExports(t *testing.T) {
	src := rng.NewPCG32(31, 7)
	w1 := tensor.New(6, 4)
	w2 := tensor.New(5, 8)
	for _, w := range []*tensor.Matrix{w1, w2} {
		for i := range w.Data {
			w.Data[i] = rng.Float64(src)*2 - 1
		}
	}
	net := &Network{
		CMax: 1, SigmaFloor: 1e-3,
		Layers: []*CoreLayer{
			{InDim: 4, Cores: []*CoreSpec{{In: []int{0, 1, 2, 3}, W: w1, Bias: make([]float64, 6), Exports: 4}}},
			{InDim: 4, Cores: []*CoreSpec{
				{In: []int{0, 1, 2, 3, 0, 1, 2, 3}, W: w2, Bias: make([]float64, 5), Exports: 3},
				{In: []int{3, 2, 1, 0, 3, 2, 1, 0}, W: w2.Clone(), Bias: make([]float64, 5), Exports: 5},
			}},
		},
	}
	net.Readout = NewMergeReadout(8, 2, 6)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	inputs, labels := randomInputs(src, net, 5)
	idx := []int{0, 1, 2, 3, 4}
	gRef := net.newGrads()
	refLoss, _ := refShardRun(net, gRef, inputs, labels, idx)
	sh := &trainShard{g: net.newGrads(), bs: net.newBatchScratch(5, true)}
	sh.run(net, inputs, labels, idx)
	if sh.loss != refLoss {
		t.Fatalf("loss %v vs ref %v", sh.loss, refLoss)
	}
	for li := range gRef.layers {
		for ci := range gRef.layers[li] {
			rw, bw := gRef.layers[li][ci], sh.g.layers[li][ci]
			for i := range rw.W.Data {
				if bw.W.Data[i] != rw.W.Data[i] {
					t.Fatalf("layer %d core %d grad %d: %v vs %v", li, ci, i, bw.W.Data[i], rw.W.Data[i])
				}
			}
		}
	}
}

// refApplyUpdate is the pre-batching update step: merged gradients in,
// interface-dispatched penalty, per-weight momentum update.
func refApplyUpdate(net *Network, grads, velocity *netGrads, lr, lambda float64, cfg TrainConfig, batchSize float64) {
	inv := 1 / batchSize
	for li, l := range net.Layers {
		for ci, c := range l.Cores {
			g, v := grads.layers[li][ci], velocity.layers[li][ci]
			for i := range c.W.Data {
				w := c.W.Data[i]
				grad := g.W.Data[i]*inv + lambda*cfg.Penalty.Grad(w, net.CMax)
				v.W.Data[i] = cfg.Momentum*v.W.Data[i] - lr*grad
				c.W.Data[i] = tensor.Clamp(w+v.W.Data[i], -net.CMax, net.CMax)
			}
			for j := range c.Bias {
				grad := g.Bias[j] * inv
				v.Bias[j] = cfg.Momentum*v.Bias[j] - lr*grad
				c.Bias[j] += v.Bias[j]
			}
		}
	}
}

// refTrain replicates the batched trainer's semantics with the per-sample
// reference machinery: the same shardChunk partition, per-sample
// forward/backward per shard (run serially here), an explicit merge in
// ascending shard order followed by the old merged update. Train must be
// bit-identical to it for any worker count.
func refTrain(net *Network, train *dataset.Dataset, cfg TrainConfig) float64 {
	if cfg.Penalty == nil {
		cfg.Penalty = NonePenalty{}
	}
	nw := cfg.workers()
	grads := make([]*netGrads, nw)
	for i := range grads {
		grads[i] = net.newGrads()
	}
	velocity := net.newGrads()
	inputs := padInputs(net, train)
	src := rng.NewPCG32(cfg.Seed, 77)
	lr := cfg.LR
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var totalLoss float64
		for _, batch := range dataset.Batches(src, train.Len(), cfg.Batch, true) {
			chunk := shardChunk(len(batch), nw)
			losses := make([]float64, nw)
			active := 0
			for w := 0; w < nw; w++ {
				lo := w * chunk
				if lo >= len(batch) {
					break
				}
				hi := min(lo+chunk, len(batch))
				active++
				losses[w], _ = refShardRun(net, grads[w], inputs, train.Y, batch[lo:hi])
			}
			sum := grads[0]
			for w := 1; w < active; w++ {
				sum.add(grads[w])
			}
			for w := 0; w < active; w++ {
				totalLoss += losses[w]
			}
			lambda := cfg.Lambda
			if epoch < cfg.Warmup {
				lambda = 0
			}
			refApplyUpdate(net, sum, velocity, lr, lambda, cfg, float64(len(batch)))
		}
		lastLoss = totalLoss / float64(train.Len())
		if cfg.LRDecay > 0 {
			lr *= cfg.LRDecay
		}
	}
	return lastLoss
}

// TestTrainBitIdenticalToReference pins the end-to-end contract: the batched
// pooled trainer produces bit-identical weights, biases and loss to the
// per-sample reference SGD across worker counts, penalties, warmup and
// batch shapes (including batches not divisible by the worker count,
// workers exceeding the batch size, shards of 16 and 17 samples, and three
// shards, whose sum depends on the merge order). Every
// config also runs on an edge copy: +0/-0 weights and biases, an all-zero
// sample and an input feature that is zero throughout.
func TestTrainBitIdenticalToReference(t *testing.T) {
	plain := blobs(94, 11) // 94 not divisible by batch or workers
	edge := blobs(94, 11)
	edge.Name = "blobs-edge"
	clear(edge.X[5])
	for _, x := range edge.X {
		x[9] = 0
	}
	configs := []TrainConfig{
		{Epochs: 2, Batch: 8, LR: 0.1, Momentum: 0.9, Seed: 3, Workers: 1},
		{Epochs: 2, Batch: 16, LR: 0.15, Momentum: 0.9, LRDecay: 0.9, Seed: 5, Workers: 3},
		{Epochs: 3, Batch: 8, LR: 0.1, Momentum: 0.5, Lambda: 0.004, Penalty: NewBiasedPenalty(), Warmup: 1, Seed: 7, Workers: 4},
		{Epochs: 2, Batch: 8, LR: 0.1, Momentum: 0.9, Lambda: 0.01, Penalty: L1Penalty{}, Seed: 9, Workers: 2},
		{Epochs: 1, Batch: 5, LR: 0.2, Momentum: 0, Lambda: 0.001, Penalty: L2Penalty{}, Seed: 11, Workers: 8},
		{Epochs: 1, Batch: 4, LR: 0.1, Momentum: 0.9, Seed: 13, Workers: 16}, // workers > batch
		{Epochs: 2, Batch: 32, LR: 0.1, Momentum: 0.9, Lambda: 0.004, Penalty: NewBiasedPenalty(), Seed: 15, Workers: 2},
		{Epochs: 2, Batch: 34, LR: 0.1, Momentum: 0.9, Seed: 17, Workers: 2},
		{Epochs: 2, Batch: 48, LR: 0.1, Momentum: 0.9, Lambda: 0.01, Penalty: L1Penalty{}, Seed: 21, Workers: 3}, // three shards
		{Epochs: 1, Batch: 17, LR: 0.1, Momentum: 0.9, Seed: 19, Workers: 1},
	}
	for i, cfg := range configs {
		for _, train := range []*dataset.Dataset{plain, edge} {
			netRef, _ := blobArch().Build(rng.NewPCG32(6, uint64(i)), 1)
			netNew, _ := blobArch().Build(rng.NewPCG32(6, uint64(i)), 1)
			if train == edge {
				src := rng.NewPCG32(8, uint64(i))
				for li, l := range netRef.Layers {
					for ci, c := range l.Cores {
						cn := netNew.Layers[li].Cores[ci]
						for k := range c.W.Data {
							switch rng.Intn(src, 8) {
							case 0:
								c.W.Data[k], cn.W.Data[k] = 0, 0
							case 1:
								c.W.Data[k], cn.W.Data[k] = math.Copysign(0, -1), math.Copysign(0, -1)
							}
						}
						for k := range c.Bias {
							c.Bias[k] = math.Copysign(0, float64(rng.Intn(src, 2))-0.5)
							cn.Bias[k] = c.Bias[k]
						}
					}
				}
			}
			refLoss := refTrain(netRef, train, cfg)
			newLoss, err := Train(netNew, train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(newLoss, refLoss) {
				t.Fatalf("config %d (%s): loss %v, ref %v", i, train.Name, newLoss, refLoss)
			}
			for li, l := range netRef.Layers {
				for ci, c := range l.Cores {
					cn := netNew.Layers[li].Cores[ci]
					for k, v := range c.W.Data {
						if !sameBits(cn.W.Data[k], v) {
							t.Fatalf("config %d (%s): weight %d/%d/%d = %v, ref %v", i, train.Name, li, ci, k, cn.W.Data[k], v)
						}
					}
					for k, v := range c.Bias {
						if !sameBits(cn.Bias[k], v) {
							t.Fatalf("config %d (%s): bias %d/%d/%d = %v, ref %v", i, train.Name, li, ci, k, cn.Bias[k], v)
						}
					}
				}
			}
		}
	}
}

// TestEvaluateMatchesReference: the pooled batched Evaluate must agree
// exactly with a serial per-sample evaluation (counts are integers, so any
// discrepancy is a real bug, not rounding).
func TestEvaluateMatchesReference(t *testing.T) {
	d := blobs(137, 21)
	net, _ := blobArch().Build(rng.NewPCG32(9, 9), 1)
	inputs := padInputs(net, d)
	s := net.newScratch()
	correct := 0
	for i := range inputs {
		out := net.forward(s, inputs[i])
		net.Readout.Scores(s.scores, out)
		if tensor.ArgMax(s.scores) == d.Y[i] {
			correct++
		}
	}
	want := float64(correct) / float64(d.Len())
	for _, workers := range []int{1, 2, 4, 32} {
		if got := Evaluate(net, d, workers); got != want {
			t.Fatalf("workers %d: accuracy %v, ref %v", workers, got, want)
		}
	}
}

// refTrainMLP replicates the pre-batching TrainMLP loop via backpropOne.
func refTrainMLP(m *MLP, train *dataset.Dataset, cfg MLPTrainConfig) {
	nw := cfg.Workers
	type worker struct {
		acts, deltas [][]float64
		gW           []*tensor.Matrix
		gB           [][]float64
		probs        []float64
	}
	mk := func() *worker {
		wk := &worker{acts: m.newActs()}
		wk.deltas = make([][]float64, len(m.W)+1)
		for l := range wk.acts {
			wk.deltas[l] = make([]float64, len(wk.acts[l]))
		}
		for _, w := range m.W {
			wk.gW = append(wk.gW, tensor.New(w.Rows, w.Cols))
			wk.gB = append(wk.gB, make([]float64, w.Rows))
		}
		wk.probs = make([]float64, m.W[len(m.W)-1].Rows)
		return wk
	}
	workers := make([]*worker, nw)
	for i := range workers {
		workers[i] = mk()
	}
	velW := make([]*tensor.Matrix, len(m.W))
	velB := make([][]float64, len(m.W))
	for l, w := range m.W {
		velW[l] = tensor.New(w.Rows, w.Cols)
		velB[l] = make([]float64, w.Rows)
	}
	src := rng.NewPCG32(cfg.Seed, 88)
	lr := cfg.LR
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, batch := range dataset.Batches(src, train.Len(), cfg.Batch, true) {
			chunk := shardChunk(len(batch), nw)
			active := 0
			for w := 0; w < nw; w++ {
				lo := w * chunk
				if lo >= len(batch) {
					break
				}
				hi := min(lo+chunk, len(batch))
				active++
				wk := workers[w]
				for l := range wk.gW {
					wk.gW[l].Zero()
					for i := range wk.gB[l] {
						wk.gB[l][i] = 0
					}
				}
				for _, si := range batch[lo:hi] {
					m.backpropOne(wk.acts, wk.deltas, wk.probs, wk.gW, wk.gB, train.X[si], train.Y[si])
				}
			}
			for w := 1; w < active; w++ {
				for l := range m.W {
					for i := range workers[0].gW[l].Data {
						workers[0].gW[l].Data[i] += workers[w].gW[l].Data[i]
					}
					for i := range workers[0].gB[l] {
						workers[0].gB[l][i] += workers[w].gB[l][i]
					}
				}
			}
			inv := 1 / float64(len(batch))
			for l := range m.W {
				for i := range m.W[l].Data {
					w := m.W[l].Data[i]
					grad := workers[0].gW[l].Data[i]*inv + cfg.Lambda*sign(w)
					velW[l].Data[i] = cfg.Momentum*velW[l].Data[i] - lr*grad
					m.W[l].Data[i] = w + velW[l].Data[i]
				}
				for i := range m.B[l] {
					velB[l][i] = cfg.Momentum*velB[l][i] - lr*workers[0].gB[l][i]*inv
					m.B[l][i] += velB[l][i]
				}
			}
		}
		if cfg.LRDecay > 0 {
			lr *= cfg.LRDecay
		}
	}
}

// TestTrainMLPBitIdenticalToReference pins the batched MLP trainer against
// the per-sample backpropOne loop, including the L1 penalty path.
func TestTrainMLPBitIdenticalToReference(t *testing.T) {
	train := blobs(90, 17)
	for i, cfg := range []MLPTrainConfig{
		{Epochs: 2, Batch: 16, LR: 0.1, Momentum: 0.9, Seed: 4, Workers: 2},
		{Epochs: 2, Batch: 8, LR: 0.05, Momentum: 0.9, LRDecay: 0.9, Lambda: 0.001, Seed: 6, Workers: 3},
		{Epochs: 1, Batch: 7, LR: 0.1, Momentum: 0, Seed: 8, Workers: 1},
	} {
		ref := NewMLP(rng.NewPCG32(2, uint64(i)), 64, 20, 9, 2)
		got := NewMLP(rng.NewPCG32(2, uint64(i)), 64, 20, 9, 2)
		refTrainMLP(ref, train, cfg)
		if err := TrainMLP(got, train, cfg); err != nil {
			t.Fatal(err)
		}
		for l := range ref.W {
			for j := range ref.W[l].Data {
				if got.W[l].Data[j] != ref.W[l].Data[j] {
					t.Fatalf("config %d: layer %d weight %d differs: %v vs %v", i, l, j, got.W[l].Data[j], ref.W[l].Data[j])
				}
			}
			for j := range ref.B[l] {
				if got.B[l][j] != ref.B[l][j] {
					t.Fatalf("config %d: layer %d bias %d differs", i, l, j)
				}
			}
		}
	}
}

// TestEvaluateMLPMatchesReference checks the batched MLP evaluation against
// per-sample prediction.
func TestEvaluateMLPMatchesReference(t *testing.T) {
	d := blobs(77, 23)
	m := NewMLP(rng.NewPCG32(3, 3), 64, 12, 2)
	correct := 0
	for i := range d.X {
		if tensor.ArgMax(m.Predict(d.X[i])) == d.Y[i] {
			correct++
		}
	}
	want := float64(correct) / float64(d.Len())
	if got := EvaluateMLP(m, d); got != want {
		t.Fatalf("EvaluateMLP %v, ref %v", got, want)
	}
}

// TestPoolRunsEveryTask: every task index runs exactly once per round, over
// many reused rounds and task counts above/below the worker count.
func TestPoolRunsEveryTask(t *testing.T) {
	for _, nw := range []int{1, 2, 4, 9} {
		p := newPool(nw)
		for round := 0; round < 50; round++ {
			n := 1 + round%13
			var counts [13]atomic.Int64
			p.run(n, func(task int) { counts[task].Add(1) })
			for i := 0; i < n; i++ {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("nw=%d round=%d: task %d ran %d times", nw, round, i, c)
				}
			}
			for i := n; i < len(counts); i++ {
				if counts[i].Load() != 0 {
					t.Fatalf("nw=%d round=%d: task %d out of range ran", nw, round, i)
				}
			}
		}
		p.run(0, func(int) { t.Fatal("ran on empty round") })
		p.close()
	}
}

// TestTrainStillDeterministicAcrossWorkerCounts documents the reduction
// contract boundary: a FIXED worker count is bit-reproducible (run twice,
// identical weights) — this complements the single-worker determinism test
// which the old implementation also guaranteed.
func TestTrainStillDeterministicAcrossRuns(t *testing.T) {
	train := blobs(60, 3)
	for _, workers := range []int{2, 5} {
		run := func() []float64 {
			net, _ := blobArch().Build(rng.NewPCG32(5, 5), 1)
			cfg := TrainConfig{Epochs: 2, Batch: 8, LR: 0.1, Momentum: 0.9,
				Penalty: NonePenalty{}, Seed: 7, Workers: workers}
			if _, err := Train(net, train, cfg); err != nil {
				t.Fatal(err)
			}
			return net.Weights()
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: weight %d differs across identical runs", workers, i)
			}
		}
	}
}

func TestMathSanity(t *testing.T) {
	// Guard the identity assumptions the batched kernels rely on: x + (-0)
	// never changes a +0-seeded accumulator.
	if v := 0.0 + math.Copysign(0, -1); math.Signbit(v) {
		t.Fatal("+0 + -0 must be +0 under round-to-nearest")
	}
}
