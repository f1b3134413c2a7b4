package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tinyScale runs every phase of every workload in seconds.
var tinyScale = scale{
	trainN: 1000, testN: 100, epochs: 1,
	deepTrainN: 100, deepTestN: 50,
	setups: 2, serveSurfCalls: 1,
	chipCopies: 2, chipFrames: 4, serveChipFrames: 4,
	checkFrames: 2, warmup: 200 * time.Millisecond,
}

// TestWorkloadsSmoke runs each workload at tiny scale, untraced and traced,
// and requires passing output checks and every metric of the mode.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and serves traffic")
	}
	for _, w := range []string{"serve_exact", "offline"} {
		for _, traced := range []bool{false, true} {
			o := opts{seed: 3, seconds: time.Second, traced: traced, sc: tinyScale}
			rep, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			res, err := rep.result(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d problems=%v", w, traced, res.Correct, res.Attempted, rep.problems)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := runWorkload("nope", opts{sc: tinyScale}); err == nil {
		t.Error("unknown workload ran")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the metric tables and the
// repository's BENCHMARK.json in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
