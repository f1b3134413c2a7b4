package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// testNet builds a deterministic single-core random-weight network.
func testNet(tb testing.TB, seed uint64, inputs, neurons, classes int) *nn.Network {
	tb.Helper()
	src := rng.NewPCG32(seed, 1)
	flat := make([]float64, neurons*inputs)
	for i := range flat {
		flat[i] = rng.Float64(src)*1.6 - 0.8
	}
	bias := make([]float64, neurons)
	for j := range bias {
		bias[j] = rng.Float64(src)*2 - 1
	}
	in := make([]int, inputs)
	for i := range in {
		in[i] = i
	}
	net := &nn.Network{
		Layers: []*nn.CoreLayer{{InDim: inputs, Cores: []*nn.CoreSpec{{
			In: in, W: tensor.FromSlice(neurons, inputs, flat), Bias: bias, Exports: neurons,
		}}}},
		Readout:    nn.NewMergeReadout(neurons, classes, 1),
		CMax:       1,
		SigmaFloor: 1e-3,
	}
	if err := net.Validate(); err != nil {
		tb.Fatal(err)
	}
	return net
}

// directResults is the offline reference the server must match bit-for-bit:
// a plain deploy.FastPredictor over the (seed, SampleStream) copy, item i
// drawing from (seed, FrameStream+i) — no serve machinery involved.
func directResults(tb testing.TB, net *nn.Network, seed uint64, inputs [][]float64, spf int) []ClassifyResult {
	tb.Helper()
	plan := deploy.CompileQuant(net)
	sn := plan.Sample(rng.NewPCG32(seed, SampleStream), deploy.DefaultSampleConfig())
	pred := &deploy.FastPredictor{Net: sn}
	fs := sn.NewFrameScratch()
	out := make([]ClassifyResult, len(inputs))
	for i, x := range inputs {
		counts := make([]int64, sn.Classes())
		pred.Frame(fs, x, spf, rng.NewPCG32(seed, FrameStream+uint64(i)), counts)
		out[i] = ClassifyResult{Class: pred.Decide(counts), Counts: counts}
	}
	return out
}

func postClassify(tb testing.TB, client *http.Client, url string, req ClassifyRequest) (*http.Response, ClassifyResponse, string) {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := client.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		tb.Fatal(err)
	}
	var out ClassifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			tb.Fatalf("decode %q: %v", buf.String(), err)
		}
	}
	return resp, out, buf.String()
}

// e2eCase is one concurrent request of the end-to-end suite with its
// precomputed offline reference.
type e2eCase struct {
	model  string
	seed   uint64
	spf    int
	single bool // exercise the "input" form instead of "inputs"
	inputs [][]float64
	want   []ClassifyResult
}

func e2eCases(t *testing.T, nets map[string]*nn.Network, n int) []e2eCase {
	t.Helper()
	names := []string{"alpha", "beta"}
	dims := map[string]int{}
	for name, net := range nets {
		dims[name] = net.Layers[0].InDim
	}
	cases := make([]e2eCase, n)
	for r := range cases {
		model := names[r%len(names)]
		src := rng.NewPCG32(uint64(r), 5)
		k := 1 + r%4
		inputs := make([][]float64, k)
		for i := range inputs {
			x := make([]float64, dims[model])
			for j := range x {
				x[j] = rng.Float64(src)
			}
			inputs[i] = x
		}
		c := e2eCase{
			model: model,
			// A few shared seeds exercise the warm cache under concurrency;
			// the rest stay distinct.
			seed:   uint64(100 + r%7*50 + r/7),
			spf:    1 + r%3,
			single: k == 1 && r%2 == 0,
			inputs: inputs,
		}
		c.want = directResults(t, nets[model], c.seed, c.inputs, c.spf)
		cases[r] = c
	}
	return cases
}

// TestServeEndToEndBitIdentical is the contract test: concurrent mixed-model
// requests through the full HTTP + micro-batching pipeline must return
// responses bit-identical to direct offline FastPredictor calls with the same
// per-request seeds, for every batching/worker configuration.
func TestServeEndToEndBitIdentical(t *testing.T) {
	nets := map[string]*nn.Network{
		"alpha": testNet(t, 11, 24, 12, 3),
		"beta":  testNet(t, 22, 16, 8, 2),
	}
	configs := []Config{
		{MaxBatch: 1, Window: -1, Workers: 1, FlushWorkers: 1}, // no coalescing at all
		{MaxBatch: 8, Window: 2 * time.Millisecond, Workers: 4},
		{MaxBatch: 64, Window: 5 * time.Millisecond, Workers: 2, FlushWorkers: 4, QueueCap: 512},
		{}, // the default busy-aware batcher
	}
	n := 60
	if testing.Short() {
		configs = configs[1:2]
		n = 24
	}
	cases := e2eCases(t, nets, n)
	for ci, cfg := range configs {
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			reg := NewRegistry()
			for name, net := range nets {
				if _, err := reg.Register(name, net, nil); err != nil {
					t.Fatal(err)
				}
			}
			srv := NewServer(reg, cfg)
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Close() }()

			var wg sync.WaitGroup
			errs := make(chan error, len(cases))
			for _, c := range cases {
				wg.Add(1)
				go func(c e2eCase) {
					defer wg.Done()
					req := ClassifyRequest{Model: c.model, Seed: c.seed, SPF: c.spf}
					if c.single {
						req.Input = c.inputs[0]
					} else {
						req.Inputs = c.inputs
					}
					resp, got, raw := postClassify(t, ts.Client(), ts.URL, req)
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("%s seed=%d: status %d: %s", c.model, c.seed, resp.StatusCode, raw)
						return
					}
					if len(got.Results) != len(c.want) {
						errs <- fmt.Errorf("%s seed=%d: %d results, want %d", c.model, c.seed, len(got.Results), len(c.want))
						return
					}
					for i := range c.want {
						if got.Results[i].Class != c.want[i].Class {
							errs <- fmt.Errorf("%s seed=%d item %d: class %d, offline %d",
								c.model, c.seed, i, got.Results[i].Class, c.want[i].Class)
							return
						}
						for k := range c.want[i].Counts {
							if got.Results[i].Counts[k] != c.want[i].Counts[k] {
								errs <- fmt.Errorf("%s seed=%d item %d class %d: count %d, offline %d",
									c.model, c.seed, i, k, got.Results[i].Counts[k], c.want[i].Counts[k])
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			st := srv.Stats()
			var items int64
			for _, m := range st.Models {
				items += m.Items
			}
			var wantItems int64
			for _, c := range cases {
				wantItems += int64(len(c.inputs))
			}
			if items != wantItems {
				t.Errorf("stats recorded %d items, want %d", items, wantItems)
			}
		})
	}
}

// TestServeRepeatedRequestIsReproducible: the same request twice — across
// different traffic — must return byte-identical result payloads.
func TestServeRepeatedRequestIsReproducible(t *testing.T) {
	reg := NewRegistry()
	net := testNet(t, 33, 20, 10, 2)
	if _, err := reg.Register("m", net, nil); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{MaxBatch: 4, Window: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	x := make([]float64, 20)
	for i := range x {
		x[i] = float64(i) / 20
	}
	req := ClassifyRequest{Model: "m", Seed: 9, SPF: 3, Input: x}
	_, first, _ := postClassify(t, ts.Client(), ts.URL, req)
	// Interleave unrelated traffic with different seeds.
	for i := 0; i < 5; i++ {
		postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: uint64(100 + i), Input: x})
	}
	_, second, _ := postClassify(t, ts.Client(), ts.URL, req)
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Fatalf("repeated request diverged:\n%s\n%s", a, b)
	}
}

func TestModelsHealthStatsEndpoints(t *testing.T) {
	reg := NewRegistry()
	meta := &core.ModelMeta{Penalty: "biased", FloatAccuracy: 0.91}
	if _, err := reg.Register("beta", testNet(t, 2, 8, 4, 2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("alpha", testNet(t, 1, 12, 6, 3), meta); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	resp, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Fatalf("models = %+v, want sorted [alpha beta]", infos)
	}
	if infos[0].Classes != 3 || infos[0].InputDim != 12 || infos[0].Cores != 1 || infos[0].Penalty != "biased" || infos[0].FloatAcc != 0.91 {
		t.Fatalf("alpha info %+v", infos[0])
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Traffic, then counters.
	x := make([]float64, 12)
	postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "alpha", Seed: 1, Inputs: [][]float64{x, x}})
	postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "alpha", Seed: 1, Input: x})
	resp, err = ts.Client().Get(ts.URL + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	m := st.Models["alpha"]
	if m.Requests != 2 || m.Items != 3 || m.Batches == 0 || m.AvgBatchSize <= 0 {
		t.Fatalf("alpha stats %+v", m)
	}
	if m.SampleCacheMisses != 1 || m.SampleCacheHits != 1 {
		t.Fatalf("cache stats %+v, want 1 miss (first seed use) and 1 hit", m)
	}
	if st.ItemsTotal != 3 || st.Flushes == 0 {
		t.Fatalf("global stats %+v", st)
	}
}

func TestRegistryLoadDirBothFormats(t *testing.T) {
	dir := t.TempDir()
	envNet := testNet(t, 5, 10, 5, 2)
	m := &core.Model{Net: envNet, Meta: core.ModelMeta{Penalty: "l2", FloatAccuracy: 0.8}}
	if err := m.SaveFile(filepath.Join(dir, "envelope.json")); err != nil {
		t.Fatal(err)
	}
	rawNet := testNet(t, 6, 8, 4, 2)
	if err := rawNet.SaveFile(filepath.Join(dir, "raw.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	n, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d models, want 2", n)
	}
	env, ok := reg.Get("envelope")
	if !ok || env.Meta == nil || env.Meta.Penalty != "l2" {
		t.Fatalf("envelope entry %+v", env)
	}
	raw, ok := reg.Get("raw")
	if !ok || raw.Meta != nil {
		t.Fatalf("raw entry should have nil meta, got %+v", raw)
	}
	// Envelope and raw loads of the same weights must serve identically.
	if env.Plan.InputDim() != 10 || raw.Plan.InputDim() != 8 {
		t.Fatalf("plan dims %d/%d", env.Plan.InputDim(), raw.Plan.InputDim())
	}

	if _, err := reg.LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadFile(bad); err == nil {
		t.Fatal("malformed model file accepted")
	}
}

func TestRegistryDuplicateAndCacheEviction(t *testing.T) {
	reg := NewRegistry()
	reg.SetSampleCacheCap(2)
	net := testNet(t, 7, 8, 4, 2)
	e, err := reg.Register("m", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("m", net, nil); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := reg.Register("", net, nil); err == nil {
		t.Fatal("empty name accepted")
	}

	// Same seed twice: one sample, one hit, and the same copy pointer.
	a, b := e.Sampled(1), e.Sampled(1)
	if a != b {
		t.Fatal("warm cache returned distinct copies for one seed")
	}
	e.Sampled(2)
	e.Sampled(3) // evicts one of {1,2}
	e.mu.Lock()
	size := len(e.cache)
	e.mu.Unlock()
	if size != 2 {
		t.Fatalf("cache size %d, want cap 2", size)
	}
	hits, misses := e.CacheStats()
	if hits != 1 || misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 1/3", hits, misses)
	}
	// Determinism survives eviction: a re-sampled seed yields the same draw.
	want := directResults(t, net, 1, [][]float64{make([]float64, 8)}, 1)
	sn := e.Sampled(1)
	pred := &deploy.FastPredictor{Net: sn}
	fs := sn.NewFrameScratch()
	counts := make([]int64, 2)
	pred.Frame(fs, make([]float64, 8), 1, rng.NewPCG32(1, FrameStream), counts)
	if pred.Decide(counts) != want[0].Class {
		t.Fatal("re-sampled copy diverged from the offline reference")
	}
}

// TestServeGracefulDrainServesAcceptedWork: requests accepted before Close
// complete with correct results even while the server drains.
func TestServeGracefulDrainServesAcceptedWork(t *testing.T) {
	reg := NewRegistry()
	net := testNet(t, 44, 16, 8, 2)
	if _, err := reg.Register("m", net, nil); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{MaxBatch: 16, Window: 20 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	x := make([]float64, 16)
	for i := range x {
		x[i] = 0.5
	}
	want := directResults(t, net, 5, [][]float64{x}, 2)
	done := make(chan error, 1)
	go func() {
		resp, got, raw := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: 5, SPF: 2, Input: x})
		if resp.StatusCode != http.StatusOK {
			done <- fmt.Errorf("status %d: %s", resp.StatusCode, raw)
			return
		}
		if got.Results[0].Class != want[0].Class {
			done <- fmt.Errorf("drained result class %d, want %d", got.Results[0].Class, want[0].Class)
			return
		}
		done <- nil
	}()
	time.Sleep(5 * time.Millisecond) // let the item enter the window wait
	srv.Close()                      // drain must flush it, not drop it
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// After drain, new work is refused cleanly.
	resp, _, _ := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: 5, Input: x})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", resp.StatusCode)
	}
}
