package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/deploy"
	"repro/internal/eval"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a run prints with --trace 0: what a user of the system
// sees, in host time. Every workload measures all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"lo.p50_ms", "ms"},
	{"hi.p50_ms", "ms"},
	{"hi.ontime_frac", "frac"},
	{"success_frac", "frac"},
	{"train_samples_per_s", "1/s"},
	{"surface_frames_per_s", "1/s"},
	{"chip_frames_per_s", "1/s"},
}

// perLayer is what a run prints with --trace 1. Serving layers are measured
// at the hi step.
var perLayer = []metricDef{
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_mean_ms", "ms"},
	{"loadgen.client_mean_ms", "ms"},
	{"loadgen.client_p90_ms", "ms"},
	{"loadgen.goodput_rps", "1/s"},
	{"serve.router.self_ms", "ms"},
	{"serve.handler.self_ms", "ms"},
	{"serve.batcher.queue_wait_mean_ms", "ms"},
	{"serve.batcher.queue_wait_max_ms", "ms"},
	{"serve.batcher.batch_size_mean", "count"},
	{"serve.compute_ms", "ms"},
	{"serve.unattributed_frac", "frac"},
	{"trace.overhead_ratio", "ratio"},
	{"deploy.sample_ms", "ms"},
	{"deploy.frame_us", "us"},
	{"engine.waves.copies_used_mean", "count"},
	{"engine.waves.early_exit_rate", "frac"},
	{"nn.train_s", "s"},
	{"engine.grid_s", "s"},
	{"deploy.lower_s", "s"},
	{"truenorth.anneal_s", "s"},
	{"truenorth.tick_ms", "ms"},
	{"truenorth.synev_per_host_s", "1/s"},
	{"truenorth.spikes_per_frame", "count"},
	{"truenorth.synev_per_frame", "count"},
	{"noc.hops_per_frame", "count"},
	{"placement.wire_cost", "count"},
}

// unattributedTolerance is the share of the client-side mean latency at the
// hi step that the generator's lateness and the traced self times may leave
// unexplained in a traced run: the client's own HTTP round trip to the
// router, which no span covers (~7% when this was written). A traced run
// beyond it fails its checks.
const unattributedTolerance = 0.25

// report collects one run's measurements and check outcomes.
type report struct {
	vals              map[string]float64
	attempted, failed int
	problems          []string
	// detail goes into the run's record line only.
	detail map[string]any
}

func newReport() *report {
	return &report{vals: make(map[string]float64), detail: make(map[string]any)}
}

// problem records a failed output check; nil is a passed one.
func (r *report) problem(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

// serve runs an unmeasured warm-up and the measured lo and hi steps, then
// records their metrics. A traced run adds a hi step with the spans off, for
// the tracing overhead.
func (r *report) serve(t *traffic, step, warmup time.Duration, traced bool) {
	t.run(loRate, warmup, false)
	runtime.GC()
	lo, _ := t.run(loRate, step, true)
	hi, w := t.run(hiRate, step, true)
	steps := []stepStats{lo, hi}
	if traced {
		t.f.setTraced(false)
		off, _ := t.run(hiRate, step, true)
		t.f.setTraced(true)
		steps = append(steps, off)
		r.vals["trace.overhead_ratio"] = hi.p50 / off.p50
	}
	attempted, ok := 0, 0
	for _, s := range steps {
		attempted += s.attempted
		ok += s.ok
	}
	r.attempted += attempted
	r.failed += attempted - ok
	r.vals["success_frac"] = float64(ok) / float64(attempted)
	r.vals["lo.p50_ms"] = lo.p50
	r.vals["hi.p50_ms"] = hi.p50
	r.vals["hi.ontime_frac"] = float64(hi.ontime) / float64(hi.attempted)
	r.detail["lo.n"], r.detail["hi.n"] = lo.attempted, hi.attempted

	r.vals["loadgen.late_p50_ms"] = hi.lateP50
	r.vals["loadgen.late_p99_ms"] = hi.lateP99
	r.vals["loadgen.late_mean_ms"] = hi.lateMean
	r.vals["loadgen.client_mean_ms"] = hi.mean
	r.vals["loadgen.client_p90_ms"] = hi.p90
	r.vals["loadgen.goodput_rps"] = float64(hi.goodput) / step.Seconds()
	if w.items > 0 {
		item := w.latMS / float64(w.items)
		wait := w.waitMS / float64(w.items)
		r.vals["serve.batcher.queue_wait_mean_ms"] = wait
		r.vals["serve.compute_ms"] = item - wait
		if traced {
			r.vals["serve.handler.self_ms"] = w.workerMS - item
			r.vals["serve.router.self_ms"] = w.routerMS - w.workerMS
			// Each request carries one item, so the self times above sum to
			// the router span; with the generator's lateness they tile the
			// client-side latency but for the client's own hop to the router.
			frac := (hi.mean - hi.lateMean - w.routerMS) / hi.mean
			r.vals["serve.unattributed_frac"] = frac
			if math.Abs(frac) > unattributedTolerance {
				r.problem(fmt.Errorf("traced self times leave %.0f%% of the %.3fms client mean unexplained (tolerance %.0f%%)",
					100*frac, hi.mean, 100*unattributedTolerance))
			}
		}
	}
	r.vals["serve.batcher.queue_wait_max_ms"] = w.waitMaxMS
	if w.batches > 0 {
		r.vals["serve.batcher.batch_size_mean"] = float64(w.items) / float64(w.batches)
	}
}

// surface records the median call's rate, which a burst of load from
// outside the process moves less than a total would.
func (r *report) surface(s surfaceOut) {
	r.vals["surface_frames_per_s"] = median(s.rates)
	r.vals["engine.grid_s"] = s.gridS
	if s.samples > 0 {
		r.vals["deploy.sample_ms"] = s.sampleS * 1e3 / float64(s.samples)
	}
}

// chip records the chip run. The frame rate is the median frame's, for the
// same reason as surface's; the tick and event rates are over the whole run.
func (r *report) chip(c *chip, out chipOut, lowerS, annealS float64) {
	frames := float64(out.frames)
	wallS := 0.0
	for _, s := range out.frameS {
		wallS += s
	}
	r.vals["chip_frames_per_s"] = 1 / median(out.frameS)
	r.vals["truenorth.tick_ms"] = wallS * 1e3 / float64(out.ticks)
	r.vals["truenorth.synev_per_host_s"] = float64(out.synEvents) / wallS
	r.vals["truenorth.spikes_per_frame"] = float64(out.spikes) / frames
	r.vals["truenorth.synev_per_frame"] = float64(out.synEvents) / frames
	r.vals["noc.hops_per_frame"] = float64(out.hops) / frames
	r.vals["placement.wire_cost"] = c.cn.Placed.WireCost(c.cn.Traffic())
	r.vals["deploy.lower_s"], r.vals["truenorth.anneal_s"] = lowerS, annealS
}

// probes times single layers directly on the served model.
func (r *report) probes(plan *deploy.QuantPlan, images [][]float64, seed uint64) {
	r.vals["deploy.frame_us"] = probeFrameUS(plan, images, seed, 2000)
	r.vals["engine.waves.copies_used_mean"], r.vals["engine.waves.early_exit_rate"] = probeWaves(plan, images, seed, 2)
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result picks the metrics of the run's mode. A missing one is a bug.
func (r *report) result(traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	return out, nil
}

// peakRSSMB is the process's resident-set high-water mark so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fingerprint identifies the machine, toolchain and code a record was made
// with. The commit is read from .git when the benchmark runs in a clone;
// the source digest identifies the code in any checkout.
func fingerprint() map[string]any {
	return map[string]any{
		"machine":    eval.Machine(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(),
		"source":     sourceDigest(),
		"senders":    senders(),
	}
}

func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod, BENCHMARK.json and every file under internal/
// and perfbench/, so records of other program or benchmark code differ.
func sourceDigest() string {
	h := sha256.New()
	add := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	}
	walk := func(dir string) error {
		return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			return add(path)
		})
	}
	if errors.Join(add("go.mod"), add("BENCHMARK.json"), walk("internal"), walk("perfbench")) != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
