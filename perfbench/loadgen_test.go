package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/serve"
)

func TestQuantileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{ten, 0.5, 5},   // rank ceil(5) = 5
		{ten, 0.9, 9},   // rank 9
		{ten, 0.99, 10}, // rank ceil(9.9) = 10
		{ten, 0.01, 1},  // rank ceil(0.1) = 1
		{[]float64{3, 1}, 0.5, 1},
		{[]float64{7}, 0.99, 7},
		{nil, 0.5, 0},
	} {
		xs := append([]float64(nil), c.xs...)
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
}

// TestLatencyFromDueTime sends three requests that are all due at once
// through one sender to a server that takes 20ms each. The second and third
// wait for the sender, and that wait must count: latency runs from the due
// time, so it grows by about 20ms per request, and so does lateness.
func TestLatencyFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	clients := newSenders(1, 5*time.Second)
	defer clients[0].CloseIdleConnections()
	sched := []arrival{{at: 0}, {at: 0}, {at: 0}}
	body := func(reqKey, []byte) []byte { return []byte("{}") }
	rs := runStep(clients, srv.URL, sched, body, time.Minute)
	for i, r := range rs {
		if !r.ok() {
			t.Fatalf("request %d failed: %+v", i, r)
		}
		if lat, min := r.latency(), time.Duration(i+1)*service; lat < min {
			t.Errorf("request %d: latency %v, want at least %v (from its due time)", i, lat, min)
		}
		if late, min := r.sent-r.due, time.Duration(i)*service; late < min {
			t.Errorf("request %d: lateness %v, want at least %v", i, late, min)
		}
	}
	s := summarize(rs, time.Second, 55*time.Millisecond)
	if s.ontime != 2 || s.ok != 3 {
		t.Errorf("ontime %d of %d ok, want 2 of 3 within 55ms of their due time", s.ontime, s.ok)
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	ms := time.Millisecond
	rs := []reqResult{
		{due: 0, sent: 0, end: 5 * ms, status: 200},                  // on time
		{due: 10 * ms, sent: 10 * ms, end: 60 * ms, status: 200},     // over the limit
		{due: 20 * ms, sent: 21 * ms, end: 22 * ms, status: 429},     // refused
		{due: 30 * ms, sent: 31 * ms, end: 32 * ms, status: 0},       // failed
		{due: 40 * ms, sent: 90 * ms, dropped: true},                 // never sent
		{due: 900 * ms, sent: 900 * ms, end: 1100 * ms, status: 200}, // completed after the window
	}
	s := summarize(rs, time.Second, 25*ms)
	if s.attempted != 6 || s.ok != 3 || s.ontime != 1 {
		t.Errorf("attempted %d ok %d ontime %d, want 6, 3, 1", s.attempted, s.ok, s.ontime)
	}
	if s.goodput != 2 {
		t.Errorf("goodput %d, want 2: a completion after the window does not count", s.goodput)
	}
	// The 200s took 5 and 50ms in the first fifth of the window (p50 5,
	// p90 50) and 200ms in the last (p50 and p90 200); the nearest-rank
	// median of two slices is the lower one.
	if s.p50 != 5 || s.p90 != 50 {
		t.Errorf("p50 %g p90 %g, want 5 and 50", s.p50, s.p90)
	}
	// The dropped request has no lateness; the others were 0, 0, 1, 1, 0ms late.
	if s.lateMean != 0.4 || s.lateP99 != 1 {
		t.Errorf("lateness mean %g p99 %g, want 0.4 and 1", s.lateMean, s.lateP99)
	}
}

func TestPoissonScheduleIsSeededAndOnRate(t *testing.T) {
	key := func(i int) reqKey { return reqKey{seed: i % 3} }
	a := poissonSchedule(rng.NewPCG32(5, 31), 1000, 10*time.Second, key)
	b := poissonSchedule(rng.NewPCG32(5, 31), 1000, 10*time.Second, key)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if n := len(a); n < 9700 || n > 10300 {
		t.Errorf("%d arrivals in 10s at 1000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at || a[i].at >= 10*time.Second {
			t.Fatalf("arrival %d at %v out of order or outside the window", i, a[i].at)
		}
	}
}

// TestBetweenUsesDeltas checks the step accounting of the server's counters:
// cumulative counters are differenced, while the queue-wait fields, which
// reset on every Stats read, are taken from the later boundary alone.
func TestBetweenUsesDeltas(t *testing.T) {
	a := boundary{models: []serve.ModelStats{
		{Items: 100, Batches: 50, AvgLatencyMS: 2},
		{Items: 10, Batches: 10, AvgLatencyMS: 1},
	}}
	b := boundary{models: []serve.ModelStats{
		{Items: 300, Batches: 100, AvgLatencyMS: 3, QueueWaitMeanMS: 2, QueueWaitMaxMS: 9},
		{Items: 20, Batches: 15, AvgLatencyMS: 1.5, QueueWaitMeanMS: 1, QueueWaitMaxMS: 4},
	}}
	w := between(a, b)
	want := serverWindow{
		items: 210, batches: 55,
		latMS:  (900 - 200) + (30 - 10),
		waitMS: 2*200 + 1*10, waitMaxMS: 9,
	}
	if w != want {
		t.Errorf("between = %+v, want %+v", w, want)
	}
}

// TestQuantilesAreMedianOverSlices: one slow slice of the window must not
// move the step's quantiles.
func TestQuantilesAreMedianOverSlices(t *testing.T) {
	var rs []reqResult
	for slice := 0; slice < quantileBins; slice++ {
		service := time.Duration(10+slice) * time.Millisecond
		if slice == 2 {
			service = time.Second
		}
		for i := 0; i < 10; i++ {
			due := time.Duration(slice*100+i) * time.Millisecond
			rs = append(rs, reqResult{due: due, sent: due, end: due + service, status: 200})
		}
	}
	s := summarize(rs, time.Duration(quantileBins)*100*time.Millisecond, time.Second)
	// Slice p50s and p90s are 10, 11, 1000, 13 and 14ms; their median is 13.
	if s.p50 != 13 || s.p90 != 13 {
		t.Errorf("p50 %g p90 %g, want 13 and 13", s.p50, s.p90)
	}
}
