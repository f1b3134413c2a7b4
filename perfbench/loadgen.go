package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// arrival is one scheduled request of an open-loop step: when it is due,
// counted from the step start, and which (request seed, input image) pair it
// carries.
type arrival struct {
	at  time.Duration
	key reqKey
}

// reqKey identifies a request's content: its request-seed index and its
// input-image index. Equal keys must get byte-identical responses.
type reqKey struct{ seed, img int }

// reqResult is what the generator saw of one arrival. Times are offsets from
// the step start. sent is zero and dropped true when the generator gave up
// before sending it.
type reqResult struct {
	key            reqKey
	due, sent, end time.Duration
	status         int
	dropped        bool
	body           []byte
}

// ok reports whether the request got a 200 with a body.
func (r reqResult) ok() bool { return !r.dropped && r.status == http.StatusOK }

// latency is measured from when the request was due, not when it was sent,
// so a generator stall is charged to every request it delays.
func (r reqResult) latency() time.Duration { return r.end - r.due }

// poissonSchedule draws arrivals at rate per second over window from src,
// with exponential gaps. keyAt gives the content of the i-th arrival.
func poissonSchedule(src rng.Source, rate float64, window time.Duration, keyAt func(i int) reqKey) []arrival {
	var out []arrival
	t := 0.0
	for i := 0; ; i++ {
		u := rng.Float64(src)
		t += -math.Log(1-u) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= window {
			return out
		}
		out = append(out, arrival{at: at, key: keyAt(i)})
	}
}

// newSenders returns n HTTP clients of one keep-alive connection each.
func newSenders(n int, timeout time.Duration) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return out
}

// runStep sends sched to url open-loop: one goroutine per client takes the
// next arrival, builds its body with body, waits until it is due and sends
// it, so the schedule never waits for the server, but at most len(clients)
// requests are in flight. An arrival not yet sent by giveUp after the step
// start is dropped and counts as failed; giveUp bounds the step when the
// server cannot keep up.
func runStep(clients []*http.Client, url string, sched []arrival, body func(k reqKey, dst []byte) []byte, giveUp time.Duration) []reqResult {
	out := make([]reqResult, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				r := &out[i]
				r.key, r.due = a.key, a.at
				b := body(a.key, nil)
				if d := time.Until(start.Add(a.at)); d > 0 {
					time.Sleep(d)
				}
				r.sent = time.Since(start)
				if r.sent > giveUp {
					r.dropped = true
					continue
				}
				r.status, r.body = post(c, url, b)
				r.end = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// post sends one classify body and returns the status and response body;
// status 0 means the request failed before a response arrived.
func post(c *http.Client, url string, body []byte) (int, []byte) {
	resp, err := c.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

// stepStats is the client-side account of one step.
type stepStats struct {
	attempted, ok, ontime int
	// goodput counts 200s that completed inside the window: completions
	// after it are excluded, so an overloaded step cannot report work it
	// finished late as throughput.
	goodput int
	// Latency quantiles and mean cover the 200s, in ms from the due time.
	// Each quantile is the median, over quantileBins equal slices of the
	// window by due time, of the slice's quantile: a few slow seconds of the
	// machine then move one slice, not the step's figure.
	p50, p90, mean float64
	// Lateness (send time minus due time) over the sent requests, in ms.
	lateP50, lateP99, lateMean float64
}

// summarize accounts a step of the given window against the latency limit.
// A request that failed, was refused or was dropped misses the limit.
func summarize(rs []reqResult, window, limit time.Duration) stepStats {
	s := stepStats{attempted: len(rs)}
	var lat, late []float64
	bins := make([][]float64, quantileBins)
	for _, r := range rs {
		if !r.dropped {
			late = append(late, ms(r.sent-r.due))
		}
		if !r.ok() {
			continue
		}
		s.ok++
		lat = append(lat, ms(r.latency()))
		b := min(int(r.due*quantileBins/window), quantileBins-1)
		bins[b] = append(bins[b], ms(r.latency()))
		if r.latency() <= limit {
			s.ontime++
		}
		if r.end <= window {
			s.goodput++
		}
	}
	var p50s, p90s []float64
	for _, b := range bins {
		if len(b) > 0 {
			p50s, p90s = append(p50s, quantile(b, 0.5)), append(p90s, quantile(b, 0.9))
		}
	}
	s.p50, s.p90, s.mean = median(p50s), median(p90s), mean(lat)
	s.lateP50, s.lateP99, s.lateMean = quantile(late, 0.5), quantile(late, 0.99), mean(late)
	return s
}

// quantileBins is how many slices of a step its latency quantiles are taken
// over.
const quantileBins = 5

// quantile is the nearest-rank q-quantile of xs (0 for no samples): the
// smallest value with at least q of the samples at or below it. xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	r := int(math.Ceil(q * float64(len(xs))))
	return xs[min(max(r, 1), len(xs))-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// median is the nearest-rank median of a copy of xs.
func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
