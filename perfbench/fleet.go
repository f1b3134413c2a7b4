package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/nn"
	"repro/internal/serve"
)

// modelName is the name every workload serves its model under.
const modelName = "bench1"

// span accumulates the wall time of the requests an http.Handler serves
// while it is on. It is the benchmark's tracing: it times calls into a
// layer's public handler from outside the program.
type span struct {
	on     atomic.Bool
	ns, nr atomic.Int64
}

func (s *span) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t := time.Now()
		h.ServeHTTP(w, r)
		s.ns.Add(int64(time.Since(t)))
		s.nr.Add(1)
	})
}

// spanMark is a span's totals at one instant; deltas give a window's mean.
type spanMark struct{ ns, n int64 }

func (s *span) mark() spanMark { return spanMark{s.ns.Load(), s.nr.Load()} }

// meanMS is the mean span in ms between two marks (0 with no requests).
func meanMS(a, b spanMark) float64 {
	if b.n == a.n {
		return 0
	}
	return float64(b.ns-a.ns) / float64(b.n-a.n) / 1e6
}

// fleet is the serving tier run in-process over loopback HTTP: a router in
// front of one or more workers that all serve the same model.
type fleet struct {
	workers []*serve.Server
	router  *serve.Router
	https   []*http.Server
	url     string // the router's base URL
	// routerSpan and workerSpan time the router's and the workers' handlers;
	// they are nil when the fleet is not traced.
	routerSpan, workerSpan *span
}

// startFleet serves net on the workers behind a router. With traced set the
// router and worker handlers are wrapped in spans, switched on.
func startFleet(net *nn.Network, traced bool) (*fleet, error) {
	f := &fleet{}
	if traced {
		f.routerSpan, f.workerSpan = &span{}, &span{}
		f.routerSpan.on.Store(true)
		f.workerSpan.on.Store(true)
	}
	var urls []string
	for i := 0; i < workers; i++ {
		reg := serve.NewRegistry()
		if _, err := reg.Register(modelName, net, nil); err != nil {
			f.close()
			return nil, err
		}
		w := serve.NewServer(reg, serve.Config{})
		f.workers = append(f.workers, w)
		var h http.Handler = w.Handler()
		if traced {
			h = f.workerSpan.wrap(h)
		}
		u, err := f.listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	// No background health checks: every worker is up for the whole run,
	// and probes would add traffic the steps do not schedule.
	rt, err := serve.NewRouter(urls, serve.RouterConfig{HealthInterval: -1})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	var h http.Handler = rt.Handler()
	if traced {
		h = f.routerSpan.wrap(h)
	}
	if f.url, err = f.listen(h); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen on loopback: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.https = append(f.https, srv)
	go srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners (router first), then drains the workers.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.https) - 1; i >= 0; i-- {
		_ = f.https[i].Shutdown(ctx) // a timeout leaves nothing to clean up in-process
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, w := range f.workers {
		w.Close()
	}
}

// setTraced switches the spans on or off; a no-op on an untraced fleet.
func (f *fleet) setTraced(on bool) {
	if f.routerSpan != nil {
		f.routerSpan.on.Store(on)
		f.workerSpan.on.Store(on)
	}
}

// boundary is everything read at one step boundary. Server.Stats resets its
// queue-wait fields on every read, so each worker is scraped exactly once
// per boundary and the wait fields of the later boundary cover the step.
type boundary struct {
	models         []serve.ModelStats
	router, worker spanMark
}

func (f *fleet) scrape() boundary {
	var b boundary
	for _, w := range f.workers {
		b.models = append(b.models, w.Stats().Models[modelName])
	}
	if f.routerSpan != nil {
		b.router, b.worker = f.routerSpan.mark(), f.workerSpan.mark()
	}
	return b
}

// serverWindow is the server side of one step, summed over the workers from
// the deltas between the boundaries before and after it.
type serverWindow struct {
	items, batches int64
	latMS, waitMS  float64 // summed per-item latency and queue wait
	waitMaxMS      float64
	routerMS       float64 // mean router span per request (traced only)
	workerMS       float64 // mean worker span per request (traced only)
}

func between(a, b boundary) serverWindow {
	var w serverWindow
	for i := range b.models {
		x, y := a.models[i], b.models[i]
		items := y.Items - x.Items
		w.items += items
		w.batches += y.Batches - x.Batches
		w.latMS += y.AvgLatencyMS*float64(y.Items) - x.AvgLatencyMS*float64(x.Items)
		w.waitMS += y.QueueWaitMeanMS * float64(items)
		w.waitMaxMS = max(w.waitMaxMS, y.QueueWaitMaxMS)
	}
	w.routerMS, w.workerMS = meanMS(a.router, b.router), meanMS(a.worker, b.worker)
	return w
}
