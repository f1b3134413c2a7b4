package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collectingBatcher returns a batcher whose flushes append to a shared log.
func collectingBatcher(cfg BatcherConfig) (*Batcher[int], func() [][]int) {
	var mu sync.Mutex
	var log [][]int
	b := NewBatcher(cfg, func(batch []int) {
		mu.Lock()
		log = append(log, append([]int(nil), batch...))
		mu.Unlock()
	})
	return b, func() [][]int {
		mu.Lock()
		defer mu.Unlock()
		return append([][]int(nil), log...)
	}
}

func flushedCount(log [][]int) int {
	n := 0
	for _, b := range log {
		n += len(b)
	}
	return n
}

// TestBatcherMaxBatchFlush: a full batch flushes immediately, far before the
// window deadline, and never exceeds MaxBatch.
func TestBatcherMaxBatchFlush(t *testing.T) {
	b, log := collectingBatcher(BatcherConfig{MaxBatch: 4, Window: time.Hour, QueueCap: 64})
	for i := 0; i < 8; i++ {
		if err := b.Submit(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for flushedCount(log()) < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 8 items flushed; the hour-long window must not gate full batches", flushedCount(log()))
		}
		time.Sleep(time.Millisecond)
	}
	for _, batch := range log() {
		if len(batch) > 4 {
			t.Fatalf("batch of %d exceeds MaxBatch 4", len(batch))
		}
	}
	b.Close()
}

// TestBatcherDeadlineFlush: a lone item flushes once the window elapses even
// though the batch is far from full.
func TestBatcherDeadlineFlush(t *testing.T) {
	b, log := collectingBatcher(BatcherConfig{MaxBatch: 1024, Window: 20 * time.Millisecond})
	start := time.Now()
	if err := b.Submit(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for flushedCount(log()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deadline flush never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("flushed after %s, before the 20ms window", elapsed)
	}
	got := log()
	if len(got) != 1 || len(got[0]) != 1 || got[0][0] != 7 {
		t.Fatalf("flush log %v, want [[7]]", got)
	}
	// The timer path must leave the collector ready for the next batch.
	if err := b.Submit(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	for flushedCount(log()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second deadline flush never fired")
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()
}

// TestBatcherBackpressure: with the pipeline saturated by a blocked flush,
// Submit blocks once the bounded queue is full, honors context cancellation
// while blocked, and resumes when capacity frees.
func TestBatcherBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var flushed atomic.Int64
	const queueCap = 3
	b := NewBatcher(BatcherConfig{MaxBatch: 1, QueueCap: queueCap, FlushWorkers: 1},
		func(batch []int) {
			<-gate
			flushed.Add(int64(len(batch)))
		})
	defer func() { b.Close() }()

	// Saturate: 1 in the stalled worker, 1 in the dispatch buffer, 1 in the
	// collector's hand, queueCap in the queue.
	total := 3 + queueCap
	for i := 0; i < total; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := b.Submit(ctx, i)
		cancel()
		if err != nil {
			t.Fatalf("submit %d within capacity failed: %v", i, err)
		}
	}

	// The queue is full: a submit with a deadline must time out.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := b.Submit(ctx, 99); err != context.DeadlineExceeded {
		t.Fatalf("submit on full queue = %v, want DeadlineExceeded", err)
	}

	// A blocked submit completes once the flush gate opens.
	done := make(chan error, 1)
	go func() { done <- b.Submit(context.Background(), 100) }()
	select {
	case err := <-done:
		t.Fatalf("submit on full queue returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("submit after capacity freed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("submit still blocked after flushes resumed")
	}
	b.Close()
	if got := flushed.Load(); got != int64(total+1) {
		t.Fatalf("flushed %d items, want %d", got, total+1)
	}
}

// TestBatcherGracefulDrain: Close flushes every accepted item exactly once
// before returning, and later submits are refused.
func TestBatcherGracefulDrain(t *testing.T) {
	b, log := collectingBatcher(BatcherConfig{MaxBatch: 8, Window: time.Hour, QueueCap: 256})
	const n = 100
	for i := 0; i < n; i++ {
		if err := b.Submit(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	b.Close() // the hour window must not delay the drain
	seen := make(map[int]int)
	for _, batch := range log() {
		for _, v := range batch {
			seen[v]++
		}
	}
	if len(seen) != n {
		t.Fatalf("drained %d distinct items, want %d", len(seen), n)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("item %d flushed %d times", v, c)
		}
	}
	if err := b.Submit(context.Background(), 1); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

// TestBatcherDrainUnderCancellation: Close racing concurrent submitters
// (some with canceling contexts) must flush exactly the accepted items —
// no losses, no duplicates, no hangs. Run with -race.
func TestBatcherDrainUnderCancellation(t *testing.T) {
	var flushedMu sync.Mutex
	flushed := make(map[int]int)
	b := NewBatcher(BatcherConfig{MaxBatch: 4, Window: time.Millisecond, QueueCap: 8},
		func(batch []int) {
			time.Sleep(100 * time.Microsecond) // keep the pipeline busy
			flushedMu.Lock()
			for _, v := range batch {
				flushed[v]++
			}
			flushedMu.Unlock()
		})
	var accepted sync.Map
	var wg sync.WaitGroup
	const goroutines, perG = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := g*perG + i
				ctx := context.Background()
				if i%7 == 3 { // some submitters give up quickly
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, 200*time.Microsecond)
					defer cancel()
				}
				if err := b.Submit(ctx, id); err == nil {
					accepted.Store(id, true)
				}
			}
		}(g)
	}
	// Close midway through the submission storm.
	time.Sleep(2 * time.Millisecond)
	b.Close()
	wg.Wait()

	flushedMu.Lock()
	defer flushedMu.Unlock()
	accepted.Range(func(k, _ any) bool {
		if flushed[k.(int)] != 1 {
			t.Errorf("accepted item %d flushed %d times", k.(int), flushed[k.(int)])
		}
		return true
	})
	for id, c := range flushed {
		if _, ok := accepted.Load(id); !ok {
			t.Errorf("item %d flushed but never accepted", id)
		}
		if c != 1 {
			t.Errorf("item %d flushed %d times", id, c)
		}
	}
}

// TestBatcherCloseDuringConcurrentSubmit: Close racing submitters blocked on
// a FULL queue — the hardest interleaving: every accepted item flushes
// exactly once, every blocked submitter returns promptly (nil or ErrClosed,
// nothing else, no hang). Run with -race.
func TestBatcherCloseDuringConcurrentSubmit(t *testing.T) {
	var flushedMu sync.Mutex
	flushed := make(map[int]int)
	gate := make(chan struct{})
	b := NewBatcher(BatcherConfig{MaxBatch: 2, QueueCap: 2, FlushWorkers: 1},
		func(batch []int) {
			<-gate // stall the pipeline so the queue fills and submitters block
			flushedMu.Lock()
			for _, v := range batch {
				flushed[v]++
			}
			flushedMu.Unlock()
		})

	var accepted sync.Map
	var wg sync.WaitGroup
	const submitters = 16
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			err := b.Submit(context.Background(), id)
			switch err {
			case nil:
				accepted.Store(id, true)
			case ErrClosed:
			default:
				t.Errorf("submit %d: %v", id, err)
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond) // queue full, most submitters blocked
	closeDone := make(chan struct{})
	go func() { b.Close(); close(closeDone) }()
	time.Sleep(time.Millisecond)
	close(gate) // release the stalled flush; drain can proceed
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with submitters blocked on a full queue")
	}
	wg.Wait()

	if err := b.Submit(context.Background(), 999); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	flushedMu.Lock()
	defer flushedMu.Unlock()
	accepted.Range(func(k, _ any) bool {
		if flushed[k.(int)] != 1 {
			t.Errorf("accepted item %d flushed %d times", k.(int), flushed[k.(int)])
		}
		return true
	})
	for id, c := range flushed {
		if _, ok := accepted.Load(id); !ok || c != 1 {
			t.Errorf("item %d: flushed %d times, accepted=%v", id, c, ok)
		}
	}
}

// TestBatcherZeroWindowGreedy: window 0 coalesces only what is already
// queued — items never wait on a timer.
func TestBatcherZeroWindowGreedy(t *testing.T) {
	b, log := collectingBatcher(BatcherConfig{MaxBatch: 64, Window: 0, QueueCap: 64})
	start := time.Now()
	if err := b.Submit(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for flushedCount(log()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("zero-window flush never fired")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("zero-window flush took %s", elapsed)
	}
	b.Close()
}

// TestBatcherBusyCoalesces: with a zero window, items arriving while a flush
// runs are held open and leave together as soon as it finishes.
func TestBatcherBusyCoalesces(t *testing.T) {
	const n = 5
	gate := make(chan struct{})
	batches := make(chan []int, n+1)
	b := NewBatcher(BatcherConfig{MaxBatch: 8, QueueCap: 16, FlushWorkers: 1}, func(batch []int) {
		if batch[0] == 0 {
			<-gate // the first flush stays busy until released
		}
		batches <- append([]int(nil), batch...)
	})
	defer b.Close()
	if err := b.Submit(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// Wait until the first batch is in flight, so the next items find the
	// pipeline busy rather than joining it.
	for b.Flushes() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	for i := 1; i <= n; i++ {
		if err := b.Submit(context.Background(), i); err != nil {
			t.Fatal(err)
		}
		// Let the collector take each item off the queue before the next
		// arrives, so it faces them one at a time, as it would spread-out
		// traffic. A batcher that dispatched them instead would stall on
		// the full hand-off buffer and leave the queue non-empty.
		for deadline := time.Now().Add(time.Second); b.Depth() > 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(gate)
	if got := <-batches; len(got) != 1 || got[0] != 0 {
		t.Fatalf("first batch %v, want [0]", got)
	}
	got := <-batches
	if len(got) != n {
		t.Fatalf("batch after the busy flush %v, want all %d items held during it", got, n)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("batch %v out of submission order", got)
		}
	}
	if f := b.Flushes(); f != 2 {
		t.Fatalf("%d flushes, want 2", f)
	}
}

// TestBatcherIdleDispatchesAtOnce: with a zero window an idle batcher sends a
// lone item straight out as a batch of one, with no timer in the way. Each
// round trip waits for the previous flush, so the pipeline is idle at every
// submit; a deadline of any length would show in the fastest round trip.
func TestBatcherIdleDispatchesAtOnce(t *testing.T) {
	batches := make(chan []int, 1)
	b := NewBatcher(BatcherConfig{MaxBatch: 64}, func(batch []int) {
		batches <- append([]int(nil), batch...)
	})
	defer b.Close()
	fastest := time.Hour
	for i := 0; i < 20; i++ {
		start := time.Now()
		if err := b.Submit(context.Background(), i); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-batches:
			if len(got) != 1 || got[0] != i {
				t.Fatalf("round trip %d flushed %v, want [%d]", i, got, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("lone item %d never flushed", i)
		}
		fastest = min(fastest, time.Since(start))
	}
	if fastest > time.Millisecond {
		t.Fatalf("fastest idle round trip took %s: a lone item waited on a timer", fastest)
	}
}
