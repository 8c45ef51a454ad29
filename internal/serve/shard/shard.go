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
// goroutine that coalesces queued inferences — up to a bounded batch size,
// waiting at most a linger interval for batch-mates — into a single matrix
// pass through the network.
package shard

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrClosed is returned by Submit after Close has begun: the caller should
// fail its request rather than retry, because the owning loop is exiting.
var ErrClosed = errors.New("shard: batcher closed")

// fnv64 constants (FNV-1a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashString returns the FNV-1a 64-bit hash of s, inlined to keep the
// per-request routing cost to a few nanoseconds with zero allocations.
func HashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// HashBytes is HashString for byte slices (cache keys are raw digests).
func HashBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}

// Pick maps a string key onto one of n shards.
func Pick(n int, key string) int {
	if n <= 1 {
		return 0
	}
	return int(HashString(key) % uint64(n))
}

// PickBytes maps a byte key (e.g. a SHA-256 inference key) onto one of n
// shards.
func PickBytes(n int, key []byte) int {
	if n <= 1 {
		return 0
	}
	return int(HashBytes(key) % uint64(n))
}

// BatcherConfig tunes one Batcher. MaxBatch and Queue must be positive;
// Linger may be zero (flush as fast as the loop can drain the queue).
type BatcherConfig struct {
	// MaxBatch bounds the number of items coalesced into one run call.
	MaxBatch int
	// Linger bounds how long the first item of a batch waits for
	// batch-mates before a partial batch flushes.
	Linger time.Duration
	// Queue is the submission buffer capacity; Submit blocks (up to its
	// context) when the queue is full — closed-loop backpressure.
	Queue int
	// OnQueue, when non-nil, observes queue-depth changes: +1 per accepted
	// submission, -1 per item moved into a batch. Wire it to a gauge.
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

	ch    chan T
	drain chan struct{}
	done  chan struct{}

	drainOnce sync.Once
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
		cfg:   cfg,
		run:   run,
		ch:    make(chan T, cfg.Queue),
		drain: make(chan struct{}),
		done:  make(chan struct{}),
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

// Drain switches the batcher to immediate flushing: queued items are
// batched without waiting out the linger interval. Submissions remain
// accepted; call it when shutdown begins so in-flight requests complete as
// fast as the evaluator allows.
func (b *Batcher[T]) Drain() {
	b.drainOnce.Do(func() { close(b.drain) })
}

// Close drains and stops the batcher: every item already accepted is still
// batched and run, then the loop exits. Safe to call more than once.
// Submissions racing with Close get ErrClosed instead of a lost item.
func (b *Batcher[T]) Close() {
	b.Drain()
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

func (b *Batcher[T]) draining() bool {
	select {
	case <-b.drain:
		return true
	default:
		return false
	}
}

// loop is the owning goroutine: block for the first item, collect
// batch-mates until the batch is full / the linger expires / the queue goes
// momentarily idle under drain, then run the batch. A closed channel
// delivers its remaining buffered items before reporting closed, so Close
// loses nothing.
func (b *Batcher[T]) loop() {
	defer close(b.done)
	batch := make([]T, 0, b.cfg.MaxBatch)
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	for {
		first, ok := <-b.ch
		if !ok {
			return
		}
		b.queued(-1)
		batch = append(batch[:0], first)
		if !b.draining() && b.cfg.Linger > 0 {
			timer.Reset(b.cfg.Linger)
		}
	collect:
		for len(batch) < b.cfg.MaxBatch {
			if b.draining() || b.cfg.Linger <= 0 {
				select {
				case it, ok := <-b.ch:
					if !ok {
						break collect
					}
					b.queued(-1)
					batch = append(batch, it)
				default:
					break collect
				}
				continue
			}
			select {
			case it, ok := <-b.ch:
				if !ok {
					break collect
				}
				b.queued(-1)
				batch = append(batch, it)
			case <-timer.C:
				break collect
			case <-b.drain:
				// Switched to drain mode mid-collect: fall through to the
				// non-blocking branch on the next iteration.
			}
		}
		stopTimer(timer)
		if b.cfg.OnFlush != nil {
			b.cfg.OnFlush(len(batch))
		}
		b.run(batch)
	}
}

// stopTimer stops t and drains a concurrently fired tick, leaving t safe to
// Reset (the pre-1.23 timer contract).
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}
