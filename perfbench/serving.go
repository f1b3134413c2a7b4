package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"time"

	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/serve"
)

// spf is the spikes per frame of every served request.
const spf = 4

// The traffic of both workloads: exact single-copy requests, sent open-loop
// at two fixed rates to a router in front of two workers. 32 request seeds
// fit the 64-copy sample cache, so after warm-up HTTP, JSON, the router hop
// and the batcher are nearly all the time. The generator's two senders are
// busy ~0.17 and ~0.34 of the time at the two rates. The busier they are,
// the more a slow stretch of the machine turns into queueing: at 350/s (~0.8
// busy) a step could fall behind its schedule for good, and at 200/s the hi
// p50 still spread 0.28 over ten seeds.
const (
	workers      = 2
	reqSeeds     = 32
	loRate       = 75  // requests per second
	hiRate       = 150 // requests per second
	latencyLimit = 25 * time.Millisecond
)

// traffic drives one fleet and keeps every measured response for the output
// checks.
type traffic struct {
	f        *fleet
	clients  []*http.Client
	images   [][]float64
	reqSeeds []uint64
	src      *rng.PCG32
	sent     int // arrivals scheduled so far: the position in the seed cycle
	// inputs[i] is image i's "input" member and heads[s] the rest of a
	// request with seed s, both JSON-encoded once, so a body is one append.
	inputs, heads [][]byte
	last          boundary
	results       []reqResult
}

// newTraffic prepares traffic over the given held-out images. The request
// seeds and the arrival schedule derive from seed alone.
func newTraffic(f *fleet, images [][]float64, seed uint64) (*traffic, error) {
	t := &traffic{
		f:       f,
		clients: newSenders(senders(), 10*time.Second),
		images:  images,
		src:     rng.NewPCG32(seed, 31),
	}
	for i := 0; i < reqSeeds; i++ {
		t.reqSeeds = append(t.reqSeeds, rng.SplitMix64(seed+uint64(i)))
		req := t.request(reqKey{seed: i})
		req.Input = nil
		b, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encode request: %w", err)
		}
		t.heads = append(t.heads, b)
	}
	for _, x := range images {
		b, err := json.Marshal(x)
		if err != nil {
			return nil, fmt.Errorf("encode input: %w", err)
		}
		t.inputs = append(t.inputs, append(append([]byte(`{"input":`), b...), ','))
	}
	return t, nil
}

func (t *traffic) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}

func (t *traffic) request(k reqKey) serve.ClassifyRequest {
	return classifyRequest(t.reqSeeds[k.seed], t.images[k.img], 1, 0)
}

// classifyRequest is a one-input request; copies > 1 makes it an ensemble
// request gated at conf.
func classifyRequest(seed uint64, x []float64, copies int, conf float64) serve.ClassifyRequest {
	req := serve.ClassifyRequest{Model: modelName, Seed: seed, SPF: spf, Input: x}
	if copies > 1 {
		req.Copies, req.Conf = copies, &conf
	}
	return req
}

// body appends the JSON body of request k to dst.
func (t *traffic) body(k reqKey, dst []byte) []byte {
	return append(append(dst, t.inputs[k.img]...), t.heads[k.seed][1:]...)
}

// run sends one open-loop step at rate for window. A measured step is closed
// by a stats scrape and its responses are kept for the checks; an unmeasured
// one (warm-up) sets the boundary the first measured step starts from.
func (t *traffic) run(rate float64, window time.Duration, measured bool) (stepStats, serverWindow) {
	sched := poissonSchedule(t.src, rate, window, func(i int) reqKey {
		return reqKey{seed: (t.sent + i) % reqSeeds, img: rng.Intn(t.src, len(t.images))}
	})
	t.sent += len(sched)
	rs := runStep(t.clients, t.f.url, sched, t.body, window+10*latencyLimit)
	prev := t.last
	t.last = t.f.scrape()
	if !measured {
		return stepStats{}, serverWindow{}
	}
	t.results = append(t.results, rs...)
	return summarize(rs, window, latencyLimit), between(prev, t.last)
}

// check verifies every response the steps received. Repeated requests must
// have byte-identical bodies, and each distinct response must equal a direct
// offline computation through the public API under the serving determinism
// contract. A few requests are then sent once more, one at a time, and must
// come back byte-identical.
func (t *traffic) check(plan *deploy.QuantPlan) error {
	first := make(map[reqKey][]byte)
	for _, r := range t.results {
		if !r.ok() {
			continue
		}
		if b, ok := first[r.key]; !ok {
			first[r.key] = r.body
		} else if !bytes.Equal(b, r.body) {
			return fmt.Errorf("request %+v: repeated responses differ:\n%s\n%s", r.key, b, r.body)
		}
	}
	keys := make([]reqKey, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].seed != keys[j].seed {
			return keys[i].seed < keys[j].seed
		}
		return keys[i].img < keys[j].img
	})
	var copies *copyCache
	for _, k := range keys {
		seed := t.reqSeeds[k.seed]
		if copies == nil || copies.seed != seed {
			copies = newCopyCache(plan, seed)
		}
		if err := t.compare(k, first[k], expect(plan, copies, t.request(k))); err != nil {
			return err
		}
	}
	for _, k := range keys[:min(16, len(keys))] {
		status, b := post(t.clients[0], t.f.url, t.body(k, nil))
		if status != http.StatusOK || !bytes.Equal(b, first[k]) {
			return fmt.Errorf("request %+v sent again: status %d, body differs:\n%s\n%s", k, status, first[k], b)
		}
	}
	return nil
}

func (t *traffic) compare(k reqKey, body []byte, want serve.ClassifyResult) error {
	var got serve.ClassifyResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("request %+v: decode response: %w", k, err)
	}
	req := t.request(k)
	if got.Model != req.Model || got.Seed != req.Seed || got.SPF != req.SPF || got.Copies != 0 ||
		got.Conf != 0 || len(got.Results) != 1 || !reflect.DeepEqual(got.Results[0], want) {
		return fmt.Errorf("request %+v: served %s, offline computation gives %+v", k, body, want)
	}
	return nil
}

// copyCache draws the sampled copies of one request seed the way the serving
// registry does: copy k is sampled from the SampleStream of CopySeed(seed, k).
type copyCache struct {
	plan *deploy.QuantPlan
	seed uint64
	nets map[int]*deploy.SampledNet
}

func newCopyCache(plan *deploy.QuantPlan, seed uint64) *copyCache {
	return &copyCache{plan: plan, seed: seed, nets: make(map[int]*deploy.SampledNet)}
}

func (c *copyCache) at(k int) *deploy.SampledNet {
	if sn, ok := c.nets[k]; ok {
		return sn
	}
	sn := c.plan.Sample(rng.NewPCG32(serve.CopySeed(c.seed, k), serve.SampleStream), deploy.DefaultSampleConfig())
	c.nets[k] = sn
	return sn
}

// expect computes the result the serving contract fixes for a one-input
// request, without the serving layer: a FastPredictor frame for an exact
// request, the wave-scheduled ensemble vote for an ensemble request, both
// drawing from the item's FrameStream.
func expect(plan *deploy.QuantPlan, copies *copyCache, req serve.ClassifyRequest) serve.ClassifyResult {
	fs := plan.NewFrameScratch()
	counts := make([]int64, plan.Classes())
	src := rng.NewPCG32(req.Seed, serve.FrameStream)
	if req.Copies <= 1 {
		pred := &deploy.FastPredictor{Net: copies.at(0)}
		pred.Frame(fs, req.Input, req.SPF, src, counts)
		return serve.ClassifyResult{Class: pred.Decide(counts), Counts: counts}
	}
	ens := deploy.NewEnsemble(plan, req.Copies, copies.at)
	used := engine.NewWaveState(ens).ClassifyWaves(ens, fs, req.Input, req.SPF, req.Copies, *req.Conf, 0, src, counts)
	return serve.ClassifyResult{Class: plan.DecideClass(counts), Counts: counts, CopiesUsed: used}
}
