package shard

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPickStableAndBounded: routing is a pure function of the key, inside
// [0, n), and spreads distinct keys across shards rather than piling onto
// one.
func TestPickStableAndBounded(t *testing.T) {
	const n = 8
	seen := map[int]int{}
	for i := 0; i < 1024; i++ {
		key := fmt.Sprintf("app/site%d#%d", i, i%3)
		s := Pick(n, key)
		if s < 0 || s >= n {
			t.Fatalf("Pick(%d, %q) = %d out of range", n, key, s)
		}
		if again := Pick(n, key); again != s {
			t.Fatalf("Pick not stable for %q: %d then %d", key, s, again)
		}
		seen[s]++
	}
	for s := 0; s < n; s++ {
		if seen[s] == 0 {
			t.Fatalf("shard %d got no keys out of 1024: %v", s, seen)
		}
	}
	if Pick(1, "anything") != 0 || Pick(0, "anything") != 0 {
		t.Fatal("degenerate shard counts must route to 0")
	}
}

// TestHashBytesMatchesString: a key routed by its string form and by its
// raw bytes lands on the same shard. math.MaxInt shards keep nearly the
// whole 64-bit hash, so the two instantiations must hash alike, not merely
// collide modulo a small count.
func TestHashBytesMatchesString(t *testing.T) {
	for _, n := range []int{2, 3, 8, math.MaxInt} {
		for _, key := range []string{"", "a", "phasedemo/working-set#0", "\x00\xff"} {
			if Pick(n, key) != Pick(n, []byte(key)) {
				t.Fatalf("%q routes differently as a string and as bytes over %d shards", key, n)
			}
		}
	}
}

// TestBatcherCoalesces: items submitted together flush as one batch bounded
// by MaxBatch, in submission order.
func TestBatcherCoalesces(t *testing.T) {
	var mu sync.Mutex
	var batches [][]int
	block := make(chan struct{})
	b := NewBatcher[int](BatcherConfig{MaxBatch: 4, Queue: 64}, func(items []int) {
		<-block
		mu.Lock()
		batches = append(batches, append([]int(nil), items...))
		mu.Unlock()
	})
	ctx := context.Background()
	// The first batch occupies the loop (blocked in run); the rest queue
	// behind it and coalesce once it returns.
	for i := 0; i < 10; i++ {
		if err := b.Submit(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	b.Close()
	mu.Lock()
	defer mu.Unlock()
	var got []int
	for _, batch := range batches {
		if len(batch) == 0 || len(batch) > 4 {
			t.Fatalf("batch size %d out of (0,4]: %v", len(batch), batches)
		}
		got = append(got, batch...)
	}
	if len(got) != 10 {
		t.Fatalf("items across batches = %d, want 10: %v", len(got), batches)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("items reordered: %v", got)
		}
	}
	if len(batches) >= 10 {
		t.Fatalf("no coalescing happened: %d single-item batches", len(batches))
	}
}

// TestBatcherFlushesPartialBatch: a lone item must not wait for a full
// batch — it flushes as soon as the queue holds nothing else.
func TestBatcherFlushesPartialBatch(t *testing.T) {
	flushed := make(chan int, 1)
	b := NewBatcher[int](BatcherConfig{MaxBatch: 1024, Queue: 8}, func(items []int) {
		flushed <- len(items)
	})
	defer b.Close()
	if err := b.Submit(context.Background(), 42); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-flushed:
		if n != 1 {
			t.Fatalf("partial flush size = %d, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the partial batch never flushed")
	}
}

// TestBatcherSubmitHonorsContext: a full queue blocks Submit until the
// caller's deadline, then fails with the context error instead of hanging.
func TestBatcherSubmitHonorsContext(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	b := NewBatcher[int](BatcherConfig{MaxBatch: 1, Queue: 1}, func([]int) {
		<-block
	})
	ctx := context.Background()
	// Fill the loop (one item in run) and the queue (one buffered).
	for i := 0; i < 2; i++ {
		if err := b.Submit(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := b.Submit(short, 99); err != context.DeadlineExceeded {
		t.Fatalf("Submit on full queue = %v, want DeadlineExceeded", err)
	}
}

// TestBatcherCloseRunsEverythingAccepted is the zero-loss drain contract:
// items accepted before Close are all run, Close returns only after the
// last batch finished, and Submit after Close fails cleanly.
func TestBatcherCloseRunsEverythingAccepted(t *testing.T) {
	var ran atomic.Int64
	b := NewBatcher[int](BatcherConfig{MaxBatch: 8, Queue: 256}, func(items []int) {
		ran.Add(int64(len(items)))
	})
	const items = 100
	for i := 0; i < items; i++ {
		if err := b.Submit(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	if got := ran.Load(); got != items {
		t.Fatalf("ran %d of %d accepted items after Close", got, items)
	}
	if err := b.Submit(context.Background(), 1); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

// TestBatcherMetricsHooks: OnQueue deltas balance to zero once the queue is
// empty, and OnFlush sees every item exactly once.
func TestBatcherMetricsHooks(t *testing.T) {
	var depth, flushed atomic.Int64
	b := NewBatcher[int](BatcherConfig{
		MaxBatch: 4,
		Queue:    64,
		OnQueue:  func(d int) { depth.Add(int64(d)) },
		OnFlush:  func(n int) { flushed.Add(int64(n)) },
	}, func([]int) {})
	for i := 0; i < 32; i++ {
		if err := b.Submit(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	if got := depth.Load(); got != 0 {
		t.Fatalf("queue-depth deltas sum to %d, want 0", got)
	}
	if got := flushed.Load(); got != 32 {
		t.Fatalf("flush observations cover %d items, want 32", got)
	}
}

// TestBatcherConcurrentSubmitters hammers Submit from many goroutines with
// Close racing behind them; every successful Submit must be matched by a
// run, with no panics or lost items. Run under -race in CI.
func TestBatcherConcurrentSubmitters(t *testing.T) {
	var ran atomic.Int64
	b := NewBatcher[int](BatcherConfig{MaxBatch: 16, Queue: 128}, func(items []int) {
		ran.Add(int64(len(items)))
	})
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := b.Submit(context.Background(), i); err == nil {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	b.Close()
	if ran.Load() != accepted.Load() {
		t.Fatalf("ran %d, accepted %d", ran.Load(), accepted.Load())
	}
}
