package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// benchExactBody is one exact single-input request for the 256-input
// benchmark net.
func benchExactBody(b *testing.B) []byte {
	x := make([]float64, 256)
	for i := range x {
		x[i] = float64(i%16) / 16
	}
	raw, err := json.Marshal(ClassifyRequest{Model: "m", Seed: 1, SPF: 4, Input: x})
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// benchPost sends one classify request and requires a 200. It reports
// failures with Error, so it is safe on any goroutine.
func benchPost(b *testing.B, client *http.Client, url string, body []byte) bool {
	resp, err := client.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Error(err)
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Errorf("status %d", resp.StatusCode)
		return false
	}
	return true
}

// BenchmarkServeClassify measures end-to-end request throughput through the
// full HTTP + micro-batching pipeline on one warm model, under the default
// busy-aware batching. The serial case is the single-request baseline: one
// client, one request in flight, so the pipeline is idle at every arrival
// and each request is flushed alone at once. The concurrent case is the
// same server under parallel load: arrivals that find a flush running
// coalesce behind it, so throughput scales back to engine/HTTP-bound (and,
// on multi-core hosts, to parallel engine fan-out on top).
func BenchmarkServeClassify(b *testing.B) {
	net := testNet(b, 31, 256, 128, 4)
	body := benchExactBody(b)
	newServer := func(b *testing.B) (*httptest.Server, func()) {
		reg := NewRegistry()
		if _, err := reg.Register("m", net, nil); err != nil {
			b.Fatal(err)
		}
		srv := NewServer(reg, Config{MaxBatch: 16, QueueCap: 1024, FlushWorkers: 4})
		ts := httptest.NewServer(srv.Handler())
		return ts, func() { ts.Close(); srv.Close() }
	}

	b.Run("serial", func(b *testing.B) {
		ts, shutdown := newServer(b)
		defer shutdown()
		client := ts.Client()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !benchPost(b, client, ts.URL, body) {
				b.FailNow()
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
	b.Run("concurrent", func(b *testing.B) {
		ts, shutdown := newServer(b)
		defer shutdown()
		client := ts.Client()
		b.SetParallelism(32)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() && benchPost(b, client, ts.URL, body) {
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

// BenchmarkServeSaturated measures throughput at saturation: 64 closed-loop
// clients each keep one exact request in flight, against the default
// busy-aware batcher and against a fixed 2ms coalescing window. It reports
// req/s and the mean batch size (items per flush); busy-aware batching must
// keep up with the window here while not making idle requests wait.
func BenchmarkServeSaturated(b *testing.B) {
	const clients = 64
	net := testNet(b, 31, 256, 128, 4)
	body := benchExactBody(b)
	for _, sub := range []struct {
		name string
		cfg  Config
	}{{"busy", Config{}}, {"window2ms", Config{Window: 2 * time.Millisecond}}} {
		b.Run(sub.name, func(b *testing.B) {
			reg := NewRegistry()
			if _, err := reg.Register("m", net, nil); err != nil {
				b.Fatal(err)
			}
			srv := NewServer(reg, sub.cfg)
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Close() }()
			client := ts.Client()
			client.Transport.(*http.Transport).MaxIdleConnsPerHost = clients
			if !benchPost(b, client, ts.URL, body) { // warm the sampled copy
				b.FailNow()
			}
			before := srv.Stats()
			var left atomic.Int64
			left.Store(int64(b.N))
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for left.Add(-1) >= 0 && benchPost(b, client, ts.URL, body) {
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			after := srv.Stats()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			if flushes := after.Flushes - before.Flushes; flushes > 0 {
				b.ReportMetric(float64(after.ItemsTotal-before.ItemsTotal)/float64(flushes), "items/flush")
			}
		})
	}
}

// decisiveBenchNet builds a single-core network whose class-0 readout neurons
// fire on essentially every tick while the rest stay silent: the decisive-vote
// regime (analogous to a well-trained model on an easy item) where the
// confidence gate exits after its first wave. The random-weight testNet is the
// opposite regime — near-uniform votes that never exit — so the pair brackets
// the gate's behavior.
func decisiveBenchNet(tb testing.TB, inputs, neurons, classes int) *nn.Network {
	tb.Helper()
	flat := make([]float64, neurons*inputs)
	bias := make([]float64, neurons)
	for j := 0; j < neurons; j++ {
		w, off := -0.8, -1.0
		if j%classes == 0 { // MergeReadout assigns neuron j to class j%classes
			w, off = 0.8, 1.0
		}
		for i := 0; i < inputs; i++ {
			flat[j*inputs+i] = w
		}
		bias[j] = off
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

// BenchmarkServeClassifyConf measures end-to-end ensemble requests (16 copies,
// 4 spf) exact versus confidence-gated through the full HTTP pipeline, on a
// decisive-vote model. Each batch holds one request (MaxBatch 1), so the
// measured cost is inference alone; the gap between the exact and conf99
// sub-benchmarks is the early-exit payoff a serving client sees
// (BENCH_6.json).
func BenchmarkServeClassifyConf(b *testing.B) {
	net := decisiveBenchNet(b, 256, 256, 4)
	x := make([]float64, 256)
	for i := range x {
		x[i] = float64(i%16) / 16
	}
	for _, sub := range []struct {
		name string
		conf float64
	}{{"exact", 0}, {"conf99", 0.99}} {
		b.Run(sub.name, func(b *testing.B) {
			reg := NewRegistry()
			if _, err := reg.Register("m", net, nil); err != nil {
				b.Fatal(err)
			}
			srv := NewServer(reg, Config{MaxBatch: 1, QueueCap: 1024, FlushWorkers: 4})
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Close() }()
			body, err := json.Marshal(ClassifyRequest{Model: "m", Seed: 1, SPF: 4, Input: x,
				Copies: 16, Conf: &sub.conf})
			if err != nil {
				b.Fatal(err)
			}
			client := ts.Client()
			post := func() {
				resp, err := client.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			post() // warm: materialize all 16 copies before timing
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			entry, _ := reg.Get("m")
			b.ReportMetric(entry.snapshot().MeanCopiesUsed, "copies/req")
		})
	}
}
