// Package shard holds the scaling primitives behind the sharded advisor:
// deterministic key-to-shard routing and a per-shard request batcher.
//
// The serving layer partitions its hot state (inference cache, instance
// timelines, drift detectors) into N shards, each owned by the requests
// that hash to it. Routing is pure arithmetic — no shared state — so the
// only synchronization left on a hot path is the owning shard's own lock,
// which is never contended by traffic addressed to other shards.
//
// The Batcher is the other half of the architecture: instead of bounding
// concurrent ANN evaluations with a global semaphore (which serializes
// misses exactly where the work is heaviest), each shard runs one batching
// goroutine that coalesces whatever inferences are queued, up to a bounded
// batch size, into a single matrix pass through the network. It never
// waits for batch-mates: items that arrive while a batch runs form the
// next one, so batches grow with load and a lone item runs at once.
package shard

import (
	"context"
	"errors"
	"sync"
)

// ErrClosed is returned by Submit after Close has begun: the caller should
// fail its request rather than retry, because the owning loop is exiting.
var ErrClosed = errors.New("shard: batcher closed")

// Pick maps a key onto one of n shards by its FNV-1a 64-bit hash, inlined
// to keep the per-request routing cost to a few nanoseconds with zero
// allocations. A key routes the same as a string and as bytes.
func Pick[K string | []byte](n int, key K) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// BatcherConfig tunes one Batcher. MaxBatch and Queue must be positive.
type BatcherConfig struct {
	// MaxBatch bounds the number of items coalesced into one run call.
	MaxBatch int
	// Queue is the submission buffer capacity; Submit blocks (up to its
	// context) when the queue is full — closed-loop backpressure.
	Queue int
	// OnQueue, when non-nil, observes queue-depth changes: +1 per accepted
	// submission, minus the batch size per batch taken from the queue.
	// Wire it to a gauge.
	OnQueue func(delta int)
	// OnFlush, when non-nil, observes the size of every flushed batch.
	// Wire it to a histogram.
	OnFlush func(n int)
}

// Batcher coalesces submitted items into bounded batches and hands them to
// one run function on a single owning goroutine. It is the per-shard
// evaluation loop: items queue concurrently, batches run strictly
// sequentially, so the run function needs no internal locking for
// shard-owned state.
type Batcher[T any] struct {
	cfg BatcherConfig
	run func([]T)

	ch   chan T
	done chan struct{}

	closeOnce sync.Once

	// mu guards the closed flag against the Submit/Close race: Close takes
	// the write side once, so a Submit can never send on a closed channel.
	mu     sync.RWMutex
	closed bool
}

// NewBatcher starts the batching goroutine. run is called with 1..MaxBatch
// items; it must not retain the slice.
func NewBatcher[T any](cfg BatcherConfig, run func([]T)) *Batcher[T] {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.Queue < 1 {
		cfg.Queue = cfg.MaxBatch
	}
	b := &Batcher[T]{
		cfg:  cfg,
		run:  run,
		ch:   make(chan T, cfg.Queue),
		done: make(chan struct{}),
	}
	go b.loop()
	return b
}

// Submit queues one item, blocking while the queue is full until ctx is
// done. It returns ctx.Err() on expiry and ErrClosed after Close.
func (b *Batcher[T]) Submit(ctx context.Context, item T) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	select {
	case b.ch <- item:
		b.queued(1)
		return nil
	default:
	}
	select {
	case b.ch <- item:
		b.queued(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the batcher: every item already accepted is still batched
// and run, then the loop exits. Safe to call more than once. Submissions
// racing with Close get ErrClosed instead of a lost item.
func (b *Batcher[T]) Close() {
	b.closeOnce.Do(func() {
		b.mu.Lock()
		b.closed = true
		close(b.ch)
		b.mu.Unlock()
	})
	<-b.done
}

func (b *Batcher[T]) queued(delta int) {
	if b.cfg.OnQueue != nil {
		b.cfg.OnQueue(delta)
	}
}

// loop is the owning goroutine: block for the first item, add whatever is
// already queued up to MaxBatch, then run the batch. The loop is the
// channel's only receiver, so the len(b.ch) items it counts are there to
// take. A closed channel delivers its remaining buffered items before
// reporting closed, so Close loses nothing.
func (b *Batcher[T]) loop() {
	defer close(b.done)
	batch := make([]T, 0, b.cfg.MaxBatch)
	for first := range b.ch {
		batch = append(batch[:0], first)
		for n := min(len(b.ch), b.cfg.MaxBatch-1); n > 0; n-- {
			batch = append(batch, <-b.ch)
		}
		b.queued(-len(batch))
		if b.cfg.OnFlush != nil {
			b.cfg.OnFlush(len(batch))
		}
		b.run(batch)
	}
}
