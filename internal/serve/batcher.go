package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Submit after Close has begun: the pipeline is
// draining and accepts no new work.
var ErrClosed = errors.New("serve: batcher closed")

// BatcherConfig bounds the dynamic micro-batcher.
type BatcherConfig struct {
	// MaxBatch flushes a batch as soon as it holds this many items
	// (default 32).
	MaxBatch int
	// Window is the deadline trigger: a batch is flushed at most Window after
	// its first item arrived, however few items joined it. Zero (the
	// default) is busy-aware batching: a batch waits only while an earlier
	// batch is still unflushed, so an idle pipeline dispatches at once and a
	// busy one coalesces the arrivals that would have queued anyway.
	Window time.Duration
	// QueueCap bounds the submission queue (default 4*MaxBatch). When the
	// queue is full, Submit blocks — backpressure propagates to callers
	// instead of growing memory without bound.
	QueueCap int
	// FlushWorkers is the number of concurrent flush executors (default 2),
	// so batch assembly pipelines with batch execution.
	FlushWorkers int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
	}
	if c.FlushWorkers <= 0 {
		c.FlushWorkers = 2
	}
	return c
}

// Batcher coalesces concurrently submitted items into batches and hands them
// to a flush function. Flushing triggers on size (MaxBatch), on deadline
// (Window after a batch's first item) or, with a zero Window, as soon as no
// earlier batch is left unflushed; the submission queue is bounded, so a
// saturated pipeline pushes back on submitters rather than buffering
// unboundedly; Close drains gracefully — every item accepted before Close is
// flushed before Close returns.
//
// The batcher never reorders items from one submitter and never inspects
// them; determinism of results is the flush function's concern (the serving
// layer guarantees it by deriving each item's randomness from the item
// alone).
type Batcher[T any] struct {
	cfg     BatcherConfig
	flush   func([]T)
	in      chan T
	batches chan []T

	mu         sync.Mutex
	closed     bool
	closeCh    chan struct{}
	submitters sync.WaitGroup
	workers    sync.WaitGroup
	closeOnce  sync.Once

	flushes atomic.Int64
	// unflushed counts dispatched batches whose flush has not returned;
	// freed wakes a collector holding a batch open when one returns.
	unflushed atomic.Int64
	freed     chan struct{}
}

// NewBatcher starts a batcher delivering batches to flush, which may be
// called concurrently from FlushWorkers goroutines.
func NewBatcher[T any](cfg BatcherConfig, flush func([]T)) *Batcher[T] {
	cfg = cfg.withDefaults()
	b := &Batcher[T]{
		cfg:     cfg,
		flush:   flush,
		in:      make(chan T, cfg.QueueCap),
		batches: make(chan []T, cfg.FlushWorkers),
		closeCh: make(chan struct{}),
		freed:   make(chan struct{}, 1),
	}
	b.workers.Add(1)
	go b.collect()
	for w := 0; w < cfg.FlushWorkers; w++ {
		b.workers.Add(1)
		go b.worker()
	}
	return b
}

// Submit queues one item. It blocks while the queue is full (backpressure)
// until space frees, ctx is done, or the batcher closes.
func (b *Batcher[T]) Submit(ctx context.Context, item T) error {
	// The mutex gate makes close airtight: a submitter either registers in
	// the WaitGroup before closed is set (so Close waits for its send to
	// resolve before closing the channel) or observes closed and never sends.
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.submitters.Add(1)
	b.mu.Unlock()
	defer b.submitters.Done()
	select {
	case b.in <- item:
		return nil
	case <-b.closeCh:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting work, flushes everything already accepted, and waits
// for all flushes to finish. Safe to call more than once.
func (b *Batcher[T]) Close() {
	b.closeOnce.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		close(b.closeCh)    // unblocks submitters waiting on a full queue
		b.submitters.Wait() // every in-flight Submit has sent or errored
		close(b.in)         // collector drains the queue, then exits
	})
	b.workers.Wait()
}

// Depth returns the current submission-queue depth.
func (b *Batcher[T]) Depth() int { return len(b.in) }

// Flushes returns the number of batches dispatched so far.
func (b *Batcher[T]) Flushes() int64 { return b.flushes.Load() }

// collect assembles batches: greedily absorb whatever is queued, then hold
// the batch open until MaxBatch items or the Window deadline, whichever
// comes first. With a zero Window the batch is held open instead while any
// dispatched batch is unflushed: like Nagle's algorithm, an idle pipeline
// sends at once and a busy one coalesces until it frees.
func (b *Batcher[T]) collect() {
	defer b.workers.Done()
	defer close(b.batches)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var batch []T
	dispatch := func() {
		if len(batch) > 0 {
			b.flushes.Add(1)
			b.unflushed.Add(1)
			b.batches <- batch
			batch = nil
		}
	}
	// absorb takes whatever is queued, up to MaxBatch; false means the
	// input closed.
	absorb := func() bool {
		for len(batch) < b.cfg.MaxBatch {
			select {
			case it, ok := <-b.in:
				if !ok {
					return false
				}
				batch = append(batch, it)
			default:
				return true
			}
		}
		return true
	}
outer:
	for {
		item, ok := <-b.in
		if !ok {
			return
		}
		batch = append(batch, item)
		if !absorb() {
			dispatch()
			return
		}
		if len(batch) >= b.cfg.MaxBatch {
			dispatch()
			continue
		}
		if b.cfg.Window <= 0 {
			for len(batch) < b.cfg.MaxBatch && b.unflushed.Load() > 0 {
				select {
				case it, ok := <-b.in:
					if !ok {
						dispatch()
						return
					}
					batch = append(batch, it)
				case <-b.freed:
				}
			}
			// The flush that freed the pipeline may race arrivals already
			// queued behind it: they join this batch, not the next.
			open := absorb()
			dispatch()
			if !open {
				return
			}
			continue
		}
		timer.Reset(b.cfg.Window)
	window:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case it, ok := <-b.in:
				if !ok {
					break window
				}
				batch = append(batch, it)
			case <-timer.C:
				dispatch()
				continue outer // timer already drained; next batch starts fresh
			}
		}
		// Full batch or closed input: the timer is still pending.
		if !timer.Stop() {
			<-timer.C
		}
		dispatch()
	}
}

func (b *Batcher[T]) worker() {
	defer b.workers.Done()
	for batch := range b.batches {
		b.flush(batch)
		b.unflushed.Add(-1)
		select {
		case b.freed <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}
