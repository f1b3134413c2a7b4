package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/synth/digits"
	"repro/internal/synth/protein"
)

// Runner caches generated datasets and trained models across experiments so a
// multi-experiment invocation trains each (bench, penalty) model exactly once.
type Runner struct {
	Opt Options
	// Log receives progress lines: plain text, plus one JSON object line per
	// training epoch (see epochLine). nil silences them.
	Log io.Writer

	mu     sync.Mutex
	data   map[string][2]*dataset.Dataset
	models map[string]*core.Model
}

// NewRunner returns a Runner with empty caches.
func NewRunner(opt Options, log io.Writer) *Runner {
	return &Runner{
		Opt:    opt,
		Log:    log,
		data:   make(map[string][2]*dataset.Dataset),
		models: make(map[string]*core.Model),
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// Data returns (generating on first use) the train/test split for a bench.
func (r *Runner) Data(b Bench) (*dataset.Dataset, *dataset.Dataset) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.data[b.Dataset]; ok {
		return d[0], d[1]
	}
	start := time.Now()
	var train, test *dataset.Dataset
	switch b.Dataset {
	case "digits":
		train, test = digits.Generate(r.Opt.digitsConfig())
	case "protein":
		train, test = protein.Generate(r.Opt.proteinConfig())
	default:
		panic(fmt.Sprintf("eval: unknown dataset %q", b.Dataset))
	}
	r.logf("generated %s: %d train / %d test in %v", b.Dataset, train.Len(), test.Len(), time.Since(start).Round(time.Millisecond))
	r.data[b.Dataset] = [2]*dataset.Dataset{train, test}
	return train, test
}

// Model returns (training on first use) the model for (bench, penalty).
func (r *Runner) Model(b Bench, penalty string) (*core.Model, error) {
	key := fmt.Sprintf("%d/%s", b.ID, penalty)
	r.mu.Lock()
	if m, ok := r.models[key]; ok {
		r.mu.Unlock()
		return m, nil
	}
	r.mu.Unlock()

	train, test := r.Data(b)
	cfg, lambda := r.Opt.TrainConfig(penalty)
	cfg.Progress = r.Progress(b.Name+"/"+penalty, train.Len())
	start := time.Now()
	m, err := core.TrainModel(core.TrainSpec{
		Arch: b.Arch, Penalty: penalty, Lambda: lambda, Train: cfg, Seed: r.Opt.Seed + uint64(b.ID),
	}, train, test)
	if err != nil {
		return nil, fmt.Errorf("eval: bench %d penalty %s: %w", b.ID, penalty, err)
	}
	r.logf("trained %s/%s: float acc %.4f (loss %.4f) in %v",
		b.Name, penalty, m.Meta.FloatAccuracy, m.Meta.TrainLoss, time.Since(start).Round(time.Millisecond))
	r.mu.Lock()
	r.models[key] = m
	r.mu.Unlock()
	return m, nil
}

// epochLine is the training-progress record a Runner with a Log writes as
// one JSON line per epoch.
type epochLine struct {
	Model    string  `json:"model"` // bench name/penalty
	Epoch    int     `json:"epoch"` // 1-based
	Loss     float64 `json:"loss"`  // mean training loss over the epoch
	TrainAcc float64 `json:"train_acc"`
	// WallS is the epoch's wall time, and SamplesPerS the training samples
	// it processed per second of it.
	WallS       float64 `json:"wall_s"`
	SamplesPerS float64 `json:"samples_per_s"`
}

// Progress returns the nn.TrainConfig.Progress callback that writes the
// per-epoch epochLine records of model, trained on samples samples, to
// r.Log; nil when r.Log is nil. It only observes: the trained weights are
// the same with and without it.
func (r *Runner) Progress(model string, samples int) func(epoch int, loss, acc float64) {
	if r.Log == nil {
		return nil
	}
	last := time.Now()
	return func(epoch int, loss, acc float64) {
		now := time.Now()
		wall := now.Sub(last).Seconds()
		last = now
		line, err := json.Marshal(epochLine{
			Model: model, Epoch: epoch + 1, Loss: loss, TrainAcc: acc,
			WallS: wall, SamplesPerS: float64(samples) / wall,
		})
		if err != nil { // a NaN loss has no JSON form
			r.logf("%s epoch %d: %v", model, epoch+1, err)
			return
		}
		r.Log.Write(append(line, '\n'))
	}
}

// EvalConfig assembles the deployment evaluation configuration every
// experiment shares — repeats, sample limit, worker cap and cancellation
// context from the options — seeded as given. Callers override Copies, SPF
// or Sample as their measurement requires.
func (r *Runner) EvalConfig(seed uint64) deploy.EvalConfig {
	return deploy.EvalConfig{
		Repeats: r.Opt.Repeats(),
		Limit:   r.Opt.EvalLimit(),
		Seed:    seed,
		Workers: r.Opt.Workers,
		Sample:  deploy.DefaultSampleConfig(),
		Ctx:     r.Opt.Ctx,
	}
}

// Surface measures (with caching left to the caller) the deployment accuracy
// grid for a bench/penalty pair.
func (r *Runner) Surface(b Bench, penalty string, maxCopies, maxSPF int) (*deploy.SurfaceResult, error) {
	m, err := r.Model(b, penalty)
	if err != nil {
		return nil, err
	}
	_, test := r.Data(b)
	cfg := r.EvalConfig(r.Opt.Seed + 1000 + uint64(b.ID))
	start := time.Now()
	surf, err := deploy.Surface(m.Net, test, maxCopies, maxSPF, cfg)
	if err != nil {
		return nil, err
	}
	r.logf("surface %s/%s %dx%d in %v", b.Name, penalty, maxCopies, maxSPF, time.Since(start).Round(time.Millisecond))
	return surf, nil
}
