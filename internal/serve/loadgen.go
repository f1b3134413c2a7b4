// Open-loop load generation against the serving tier (cmd/tnload's engine).
//
// The generator is open-loop in the queueing-theory sense: request arrivals
// follow a Poisson process at the configured rate and are launched on
// schedule whether or not earlier requests have completed. Unlike
// closed-loop benchmarks (fixed worker count, one request per worker at a
// time), an open-loop generator does not slow down when the server does —
// which is exactly what exposes the latency collapse and the admission
// controller's shedding behavior near saturation. Latency is timed from each
// request's scheduled arrival, not from when the generator got round to
// sending it, so a stalled sender shows up in the quantiles instead of
// vanishing from them (coordinated omission).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// LoadModel is one target model of a load run: its name and input dimension
// (discovered from /v1/models).
type LoadModel struct {
	Name     string
	InputDim int
}

// LoadConfig drives one open-loop load run.
type LoadConfig struct {
	// URL is the base URL of the router or single server under test.
	URL string
	// Rate is the target arrival rate in requests/second.
	Rate float64
	// Duration is how long arrivals are generated (excluding Warmup).
	Duration time.Duration
	// Warmup precedes measurement: arrivals flow at full rate but are not
	// recorded, letting sample caches and connection pools fill.
	Warmup time.Duration
	// Models cycle round-robin across requests.
	Models []LoadModel
	// SPF is the per-item spikes-per-frame (default 4).
	SPF int
	// Items is the number of inputs per request (default 1).
	Items int
	// Seeds is how many distinct request seeds cycle (default 64). Seeds
	// spread requests across the hash ring and bound the sampled-copy
	// working set each replica holds.
	Seeds int
	// ApproxFrac in [0,1] is the fraction of requests sent as
	// confidence-gated ensembles (Copies, Conf); the rest are exact
	// single-copy requests.
	ApproxFrac float64
	// Copies and Conf shape the approximate share (defaults 16, 0.99).
	Copies int
	Conf   float64
	// GenSeed seeds the generator's own randomness (arrivals, mix), making
	// a load run replayable.
	GenSeed uint64
	// MaxOutstanding caps concurrent in-flight requests (default 4096).
	// Arrivals past the cap are counted as Overflow and dropped — the
	// generator refuses to turn into a closed loop by blocking, and refuses
	// to exhaust file descriptors by not capping.
	MaxOutstanding int
	// Client is the HTTP client (default: pooled transport sized for the
	// configured concurrency).
	Client *http.Client

	// beforeLaunch, when set, runs on the sending goroutine just before
	// arrival i is launched (tests stall the sender with it).
	beforeLaunch func(i int)
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.SPF <= 0 {
		c.SPF = 4
	}
	if c.Items <= 0 {
		c.Items = 1
	}
	if c.Seeds <= 0 {
		c.Seeds = 64
	}
	if c.Copies <= 0 {
		c.Copies = 16
	}
	if c.Conf <= 0 {
		c.Conf = 0.99
	}
	if c.MaxOutstanding <= 0 {
		c.MaxOutstanding = 4096
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        c.MaxOutstanding,
				MaxIdleConnsPerHost: c.MaxOutstanding,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return c
}

// LoadReport is the outcome of one load run. Latency runs from a request's
// scheduled arrival to its response. The quantiles cover successful (200)
// requests only; shed (429) turnaround is near-instant and would flatter the
// tail if mixed in.
type LoadReport struct {
	TargetRate float64 `json:"target_rate_rps"`
	DurationS  float64 `json:"duration_s"`
	Requests   int64   `json:"requests"`
	OK         int64   `json:"ok"`
	Shed       int64   `json:"shed_429"`
	Errors     int64   `json:"errors"`
	Overflow   int64   `json:"overflow_dropped"`
	// AchievedRPS counts completed 200s per measured second — the goodput.
	AchievedRPS float64 `json:"achieved_rps"`
	ShedRate    float64 `json:"shed_rate"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	P999MS      float64 `json:"p999_ms"`
	MaxMS       float64 `json:"max_ms"`
	MeanMS      float64 `json:"mean_ms"`
	// ReplicaRequests attributes measured 200s to the replica that answered,
	// keyed by the router's X-TN-Replica response header. Empty when the
	// target is a bare worker (no router in front).
	ReplicaRequests map[string]int64 `json:"replica_requests,omitempty"`
}

// loadBody is one precomputed request body. Bodies are marshaled once up
// front — the generator's per-arrival work is a slice index and an HTTP
// POST, so the measured latency is the server's, not the client's encoder.
type loadBody struct {
	raw []byte
}

// buildBodies precomputes the request mix: for every (model, seed) pair an
// exact body and, when ApproxFrac > 0, an ensemble body. Inputs derive
// deterministically from (model, seed) through the generator's PCG32, so two
// runs with one GenSeed replay byte-identical traffic.
func buildBodies(cfg LoadConfig) ([][]loadBody, [][]loadBody, error) {
	exact := make([][]loadBody, len(cfg.Models))
	approx := make([][]loadBody, len(cfg.Models))
	for mi, m := range cfg.Models {
		if m.InputDim < 1 {
			return nil, nil, fmt.Errorf("serve: load model %q has input dim %d", m.Name, m.InputDim)
		}
		exact[mi] = make([]loadBody, cfg.Seeds)
		approx[mi] = make([]loadBody, cfg.Seeds)
		for s := 0; s < cfg.Seeds; s++ {
			seed := uint64(s)
			src := rng.NewPCG32(cfg.GenSeed^rng.SplitMix64(seed), uint64(mi)+7)
			inputs := make([][]float64, cfg.Items)
			for i := range inputs {
				x := make([]float64, m.InputDim)
				for j := range x {
					x[j] = rng.Float64(src)
				}
				inputs[i] = x
			}
			req := ClassifyRequest{Model: m.Name, Seed: seed, SPF: cfg.SPF}
			if cfg.Items == 1 {
				req.Input = inputs[0]
			} else {
				req.Inputs = inputs
			}
			raw, err := json.Marshal(req)
			if err != nil {
				return nil, nil, err
			}
			exact[mi][s] = loadBody{raw: raw}
			if cfg.ApproxFrac > 0 {
				conf := cfg.Conf
				req.Copies, req.Conf = cfg.Copies, &conf
				raw, err := json.Marshal(req)
				if err != nil {
					return nil, nil, err
				}
				approx[mi][s] = loadBody{raw: raw}
			}
		}
	}
	return exact, approx, nil
}

// RunLoad drives one open-loop load run and reports what came back. ctx
// cancellation stops arrivals early; in-flight requests still complete.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadReport, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Models) == 0 {
		return LoadReport{}, fmt.Errorf("serve: load run needs at least one model")
	}
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return LoadReport{}, fmt.Errorf("serve: load run needs positive rate and duration")
	}
	exact, approx, err := buildBodies(cfg)
	if err != nil {
		return LoadReport{}, err
	}

	var (
		mu        sync.Mutex
		latencies []int64 // ns, successful measured requests
		report    LoadReport
		outst     atomic.Int64
		wg        sync.WaitGroup
	)
	report.TargetRate = cfg.Rate
	url := trimSlash(cfg.URL) + "/v1/classify"

	// Mixing stream: decides exact-vs-approx per arrival, replayably.
	mix := rng.NewPCG32(cfg.GenSeed, 3)
	// Arrival stream: exponential inter-arrival gaps at rate λ. The schedule
	// is absolute (next = next + gap, never now + gap) so client-side delays
	// compress later gaps instead of silently lowering the offered rate.
	arrivals := rng.NewPCG32(cfg.GenSeed, 4)
	expGap := func() time.Duration {
		u := rng.Float64(arrivals)
		for u == 0 {
			u = rng.Float64(arrivals)
		}
		return time.Duration(-math.Log(u) / cfg.Rate * float64(time.Second))
	}

	start := time.Now()
	statsStart := start.Add(cfg.Warmup)
	end := statsStart.Add(cfg.Duration)
	next := start
	reqIndex := 0
	for {
		now := time.Now()
		if now.After(end) || ctx.Err() != nil {
			break
		}
		due := next
		if due.After(now) {
			time.Sleep(due.Sub(now))
			if ctx.Err() != nil {
				break
			}
		}
		if cfg.beforeLaunch != nil {
			cfg.beforeLaunch(reqIndex)
		}
		mi := reqIndex % len(cfg.Models)
		si := (reqIndex / len(cfg.Models)) % cfg.Seeds
		body := exact[mi][si]
		if cfg.ApproxFrac > 0 && rng.Float64(mix) < cfg.ApproxFrac {
			body = approx[mi][si]
		}
		reqIndex++
		next = next.Add(expGap())
		measured := !due.Before(statsStart)
		if measured {
			report.Requests++
		}
		if outst.Load() >= int64(cfg.MaxOutstanding) {
			if measured {
				report.Overflow++
			}
			continue
		}
		outst.Add(1)
		wg.Add(1)
		go func(raw []byte, measured bool) {
			defer wg.Done()
			defer outst.Add(-1)
			resp, err := cfg.Client.Post(url, "application/json", bytes.NewReader(raw))
			elapsed := time.Since(due)
			var status int
			var answeredBy string
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				answeredBy = resp.Header.Get(ReplicaHeader)
				resp.Body.Close()
				status = resp.StatusCode
			}
			if !measured {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				report.Errors++
			case status == http.StatusOK:
				report.OK++
				latencies = append(latencies, elapsed.Nanoseconds())
				if answeredBy != "" {
					if report.ReplicaRequests == nil {
						report.ReplicaRequests = make(map[string]int64)
					}
					report.ReplicaRequests[answeredBy]++
				}
			case status == http.StatusTooManyRequests:
				report.Shed++
			default:
				report.Errors++
			}
		}(body.raw, measured)
	}
	wg.Wait()

	report.DurationS = cfg.Duration.Seconds()
	if report.Requests > 0 {
		report.ShedRate = float64(report.Shed) / float64(report.Requests)
	}
	if report.DurationS > 0 {
		report.AchievedRPS = float64(report.OK) / report.DurationS
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum int64
		for _, v := range latencies {
			sum += v
		}
		report.MeanMS = float64(sum) / float64(len(latencies)) / 1e6
		report.P50MS = quantileMS(latencies, 0.50)
		report.P99MS = quantileMS(latencies, 0.99)
		report.P999MS = quantileMS(latencies, 0.999)
		report.MaxMS = float64(latencies[len(latencies)-1]) / 1e6
	}
	return report, nil
}

// quantileMS reads quantile q from ns-sorted samples, in milliseconds,
// using the nearest-rank method.
func quantileMS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e6
}

// FetchModels discovers the served model catalog from url's /v1/models.
func FetchModels(client *http.Client, url string) ([]LoadModel, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(trimSlash(url) + "/v1/models")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: /v1/models status %d", resp.StatusCode)
	}
	var infos []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, err
	}
	out := make([]LoadModel, len(infos))
	for i, m := range infos {
		out[i] = LoadModel{Name: m.Name, InputDim: m.InputDim}
	}
	return out, nil
}

// ParityCheck enforces the shard-invariant bit-identity contract end to end:
// for n probe requests (mixing exact and ensemble traffic), the router's
// response and every replica's direct response to the identical body must be
// byte-identical — any replica must answer (model, seed, input) exactly as
// any other, and as the router-fronted fleet. Returns the number of probes
// on success.
func ParityCheck(client *http.Client, routerURL string, replicaURLs []string, models []LoadModel, n int, genSeed uint64) (int, error) {
	if client == nil {
		client = http.DefaultClient
	}
	if len(models) == 0 {
		return 0, fmt.Errorf("serve: parity check needs at least one model")
	}
	targets := []string{trimSlash(routerURL)}
	for _, u := range replicaURLs {
		targets = append(targets, trimSlash(u))
	}
	for i := 0; i < n; i++ {
		m := models[i%len(models)]
		src := rng.NewPCG32(genSeed+uint64(i), 11)
		x := make([]float64, m.InputDim)
		for j := range x {
			x[j] = rng.Float64(src)
		}
		req := ClassifyRequest{Model: m.Name, Seed: uint64(1000 + i), SPF: 1 + i%3, Input: x}
		if i%2 == 1 {
			conf := 0.99
			req.Copies, req.Conf = 8, &conf
		}
		raw, err := json.Marshal(req)
		if err != nil {
			return i, err
		}
		var ref []byte
		var refTarget string
		for _, target := range targets {
			// Two posts per target: the response must also be stable under
			// repetition (warm vs cold cache paths).
			for rep := 0; rep < 2; rep++ {
				resp, err := client.Post(target+"/v1/classify", "application/json", bytes.NewReader(raw))
				if err != nil {
					return i, fmt.Errorf("probe %d: %s: %w", i, target, err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					return i, fmt.Errorf("probe %d: %s: %w", i, target, err)
				}
				if resp.StatusCode != http.StatusOK {
					return i, fmt.Errorf("probe %d: %s: status %d: %s", i, target, resp.StatusCode, body)
				}
				if ref == nil {
					ref, refTarget = body, target
				} else if !bytes.Equal(ref, body) {
					return i, fmt.Errorf("probe %d (model %s seed %d): %s diverged from %s:\n%s\nvs\n%s",
						i, m.Name, req.Seed, target, refTarget, body, ref)
				}
			}
		}
	}
	return n, nil
}
