package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

func demoTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.RegisterDemo(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{MaxBatch: 8, Window: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// TestDemoNetworkDeterministic: two processes registering the demo model
// must build identical networks — the homogeneous-fleet precondition the
// router smoke test rests on.
func TestDemoNetworkDeterministic(t *testing.T) {
	a, err := DemoNetwork(2016, 64, 128, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DemoNetwork(2016, 64, 128, 10)
	if err != nil {
		t.Fatal(err)
	}
	wa := a.Layers[0].Cores[0].W
	wb := b.Layers[0].Cores[0].W
	for r := 0; r < 128; r++ {
		for c := 0; c < 64; c++ {
			if wa.At(r, c) != wb.At(r, c) {
				t.Fatalf("demo weight (%d,%d) differs across builds with one seed", r, c)
			}
		}
	}
	if _, err := DemoNetwork(1, 0, 4, 2); err == nil {
		t.Fatal("invalid demo geometry accepted")
	}
}

// TestFetchModelsAndBuildBodies: catalog discovery round-trips through
// /v1/models, and the body generator replays byte-identically per GenSeed.
func TestFetchModelsAndBuildBodies(t *testing.T) {
	_, ts := demoTestServer(t)
	models, err := FetchModels(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != "demo" || models[0].InputDim != 64 {
		t.Fatalf("catalog %+v", models)
	}

	cfg := LoadConfig{Models: models, ApproxFrac: 0.5, GenSeed: 9}.withDefaults()
	ex1, ap1, err := buildBodies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex2, ap2, err := buildBodies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range ex1[0] {
		if !bytes.Equal(ex1[0][s].raw, ex2[0][s].raw) || !bytes.Equal(ap1[0][s].raw, ap2[0][s].raw) {
			t.Fatalf("seed %d: bodies differ across builds with one GenSeed", s)
		}
	}
	if bytes.Equal(ex1[0][0].raw, ex1[0][1].raw) {
		t.Fatal("distinct seeds produced identical bodies")
	}
	cfg2 := cfg
	cfg2.GenSeed = 10
	ex3, _, err := buildBodies(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ex1[0][0].raw, ex3[0][0].raw) {
		t.Fatal("different GenSeeds produced identical bodies")
	}
}

// TestRunLoadAgainstLiveServer: a short low-rate run against a live demo
// server completes with consistent accounting — every measured arrival is an
// OK, a shed, an error, or an overflow, and goodput/latency are populated.
func TestRunLoadAgainstLiveServer(t *testing.T) {
	_, ts := demoTestServer(t)
	models, err := FetchModels(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunLoad(context.Background(), LoadConfig{
		URL: ts.URL, Rate: 200, Duration: 300 * time.Millisecond, Warmup: 100 * time.Millisecond,
		Models: models, Seeds: 8, ApproxFrac: 0.25, Copies: 4, GenSeed: 2,
		Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("no measured arrivals in a 300ms run at 200/s")
	}
	if got := report.OK + report.Shed + report.Errors + report.Overflow; got != report.Requests {
		t.Fatalf("accounting: ok %d + shed %d + errors %d + overflow %d != requests %d",
			report.OK, report.Shed, report.Errors, report.Overflow, report.Requests)
	}
	if report.Errors != 0 {
		t.Fatalf("%d errors against a healthy server", report.Errors)
	}
	if report.OK == 0 || report.AchievedRPS <= 0 {
		t.Fatalf("no goodput recorded: %+v", report)
	}
	if report.P50MS <= 0 || report.P99MS < report.P50MS || report.P999MS < report.P99MS ||
		report.MaxMS < report.P999MS {
		t.Fatalf("latency quantiles out of order: %+v", report)
	}
	if report.TargetRate != 200 {
		t.Fatalf("target rate %v", report.TargetRate)
	}

	// Config validation.
	if _, err := RunLoad(context.Background(), LoadConfig{URL: ts.URL, Rate: 100, Duration: time.Second}); err == nil {
		t.Fatal("load run without models accepted")
	}
	if _, err := RunLoad(context.Background(), LoadConfig{URL: ts.URL, Models: models}); err == nil {
		t.Fatal("load run without rate accepted")
	}
}

// TestRunLoadTimesFromDueTime: a sender that stalls must not hide the stall.
// Every arrival due while the generator was stuck is charged the time it
// waited to be sent, so the stalled arrival itself reports at least the stall
// even though the server answers each request in a few milliseconds.
func TestRunLoadTimesFromDueTime(t *testing.T) {
	_, ts := demoTestServer(t)
	models, err := FetchModels(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	const stall = 300 * time.Millisecond
	report, err := RunLoad(context.Background(), LoadConfig{
		URL: ts.URL, Rate: 200, Duration: 600 * time.Millisecond,
		Models: models, Seeds: 8, GenSeed: 3, Client: ts.Client(),
		beforeLaunch: func(i int) {
			if i == 10 {
				time.Sleep(stall)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.OK == 0 || report.Errors != 0 {
		t.Fatalf("unhealthy run: %+v", report)
	}
	if report.MaxMS < 0.8*float64(stall.Milliseconds()) {
		t.Fatalf("max latency %.1fms after a %s sender stall: the stall was omitted", report.MaxMS, stall)
	}
}

// TestQuantileNearestRank: the nearest-rank picks match hand-computed ranks.
func TestQuantileNearestRank(t *testing.T) {
	sorted := []int64{1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6, 8e6, 9e6, 10e6}
	if q := quantileMS(sorted, 0.50); q != 5 {
		t.Fatalf("p50 = %v, want 5", q)
	}
	if q := quantileMS(sorted, 0.99); q != 10 {
		t.Fatalf("p99 = %v, want 10", q)
	}
	if q := quantileMS(sorted, 0.10); q != 1 {
		t.Fatalf("p10 = %v, want 1", q)
	}
	if q := quantileMS(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile %v", q)
	}
}

// TestParityCheckCatchesDivergence: a replica that answers differently from
// the router must fail the parity probe — the check is not vacuous.
func TestParityCheckCatchesDivergence(t *testing.T) {
	_, tsA := demoTestServer(t)
	// A fleet-violating replica: same geometry, different weight seed.
	reg := NewRegistry()
	net, err := DemoNetwork(2017, 64, 128, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("demo", net, nil); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{MaxBatch: 8, Window: time.Millisecond})
	tsB := httptest.NewServer(srv.Handler())
	defer func() { tsB.Close(); srv.Close() }()

	models, err := FetchModels(tsA.Client(), tsA.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParityCheck(tsA.Client(), tsA.URL, []string{tsA.URL}, models, 4, 1); err != nil {
		t.Fatalf("identical replicas failed parity: %v", err)
	}
	if _, err := ParityCheck(tsA.Client(), tsA.URL, []string{tsB.URL}, models, 8, 1); err == nil {
		t.Fatal("divergent replica passed the parity check")
	}
}
