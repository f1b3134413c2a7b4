// Quickstart: generate a small digit dataset, train a probability-biased
// TrueNorth model, deploy it onto the simulated chip, and compare float vs
// deployed accuracy — the whole pipeline of the paper in about a minute.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/synth/digits"
)

func main() {
	// 1. Data: a reduced synthetic MNIST-like corpus (Table 1 substitute).
	cfg := digits.DefaultConfig()
	cfg.Train, cfg.Test = 4000, 1000
	train, test := digits.Generate(cfg)
	fmt.Printf("generated %d train / %d test digit images\n", train.Len(), test.Len())
	fmt.Println("a sample digit (label", train.Y[0], "):")
	fmt.Println(digits.ASCII(train.X[0]))

	// 2. Architecture: the paper's Figure 3 network — 28x28 image tiled into
	// four 16x16 blocks (stride 12), one neuro-synaptic core per block.
	arch := &nn.Arch{
		Name: "quickstart", InputH: 28, InputW: 28,
		Block: 16, Stride: 12, CoreSize: 256, Classes: 10, Tau: 12,
	}

	// 3. Train with the probability-biased penalty (Eq. 17, a = b = 0.5).
	spec := core.TrainSpec{
		Arch: arch, Penalty: "biased", Lambda: 0.0005,
		Train: nn.TrainConfig{
			Epochs: 5, Batch: 32, LR: 0.1, Momentum: 0.9, LRDecay: 0.85,
			Warmup: 1, Seed: 1,
			Progress: func(epoch int, loss, acc float64) {
				fmt.Printf("  epoch %d: loss %.4f train-acc %.4f\n", epoch+1, loss, acc)
			},
		},
		Seed: 1,
	}
	model, err := core.TrainModel(spec, train, test)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("float (\"Caffe\") accuracy: %.4f on %d cores\n",
		model.Meta.FloatAccuracy, model.Meta.Cores)
	fmt.Printf("connection probabilities at the poles: %.1f%%\n",
		core.PolarFraction(model.Net, 0.05)*100)

	// 4. Deploy: Bernoulli-sample the synapses and classify with binary
	// spikes at 1 copy / 1 spf, then with 4 copies. DeployAccuracy routes
	// through the shared batched inference engine (internal/engine).
	for _, copies := range []int{1, 4} {
		ecfg := deploy.EvalConfig{
			Copies: copies, SPF: 1, Repeats: 3, Seed: 7,
			Sample: deploy.DefaultSampleConfig(),
		}
		res, err := model.DeployAccuracy(test, ecfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("deployed accuracy: %.4f +/- %.4f  (%d copies, %d cores)\n",
			res.Accuracy, res.StdDev, copies, res.Cores)
	}

	// 5. The same engine serves the cycle-accurate chip path behind the same
	// Predictor interface: lower one sampled copy onto an explicit
	// truenorth.Chip and batch-classify a few frames on it.
	sn := deploy.Sample(model.Net, rng.NewPCG32(7, 1), deploy.DefaultSampleConfig())
	cp, err := deploy.NewChipPredictor([]*deploy.SampledNet{sn}, deploy.MapSigned, 7)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// One worker keeps the demo output machine-independent: stochastic leak
	// draws come from each worker chip's private PRNG, so parallel chunking
	// would vary with GOMAXPROCS.
	eng := engine.New(cp, engine.Config{Workers: 1})
	acc, err := eng.Accuracy(test.X[:100], test.Y[:100], 1, rng.NewPCG32(7, 2))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stats := cp.Stats()
	fmt.Printf("chip path: %.0f%% of 100 frames correct on a %d-core chip (%d spikes, %d synaptic events)\n",
		acc*100, cp.Cores(), stats.Spikes, stats.SynEvents)

	// 6. Serve it: the same model behind the dynamic-batching HTTP service
	// (what `tnserve` runs). Requests carry a seed, and the response is
	// bit-identical to the offline fast path for that seed no matter how the
	// server batches traffic — verified below against a direct
	// FastPredictor call using the serving stream contract. Batching is
	// busy-aware: a request reaching an idle server runs at once, and only
	// requests arriving while a batch runs wait to form the next one.
	reg := serve.NewRegistry()
	if _, err := reg.Register("quickstart", model.Net, &model.Meta); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := serve.NewServer(reg, serve.Config{MaxBatch: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()
	fmt.Printf("serving model %q on %s\n", "quickstart", url)

	const servSeed, servSPF = 7, 2
	body, _ := json.Marshal(serve.ClassifyRequest{
		Model: "quickstart", Seed: servSeed, SPF: servSPF, Inputs: test.X[:4],
	})
	resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		fmt.Fprintf(os.Stderr, "classify failed: status %d: %s\n", resp.StatusCode, body)
		os.Exit(1)
	}
	var cr serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	resp.Body.Close()

	// The offline reference for the same (model, seed): sample via
	// SampleStream, run item i on FrameStream+i.
	plan := deploy.CompileQuant(model.Net)
	ssn := plan.Sample(rng.NewPCG32(servSeed, serve.SampleStream), deploy.DefaultSampleConfig())
	pred := &deploy.FastPredictor{Net: ssn}
	fs := ssn.NewFrameScratch()
	for i, r := range cr.Results {
		counts := make([]int64, ssn.Classes())
		pred.Frame(fs, test.X[i], servSPF, rng.NewPCG32(servSeed, serve.FrameStream+uint64(i)), counts)
		match := "=="
		if pred.Decide(counts) != r.Class {
			match = "!=" // never happens: the server is bit-identical
		}
		fmt.Printf("  /v1/classify image %d: class %d (label %d), offline fast path %s server\n",
			i, r.Class, test.Y[i], match)
	}
	hs.Shutdown(context.Background())
	srv.Close()
}
