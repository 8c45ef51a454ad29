package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/profile"
)

// cacheKey is the canonical identity of one inference: a SHA-256 over
// everything the model (and the memory estimator) reads from a profile. Two
// requests profiling the same behavior on the same architecture hash to the
// same key regardless of calling context or cycle share, which are
// per-request report fields, not model inputs.
type cacheKey [sha256.Size]byte

// inferenceKey derives the cache key for one (profile, arch) inference;
// vec is p.Vector().
func inferenceKey(p *profile.Profile, vec []float64, arch string) cacheKey {
	h := sha256.New()
	var scratch [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	writeU64(uint64(p.Kind))
	if p.OrderAware {
		writeU64(1)
	} else {
		writeU64(0)
	}
	h.Write([]byte(arch))
	h.Write([]byte{0}) // separate arch from the numeric tail
	// MaxLen and ElemSize feed adt.EstimatedBytes directly (the feature
	// vector only sees them log-compressed), so key on the exact values.
	writeU64(p.Stats.MaxLen)
	writeU64(p.Stats.ElemSize)
	for _, f := range vec {
		writeU64(math.Float64bits(f))
	}
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// lruCache is a bounded, mutex-guarded LRU of inference results. The cached
// Suggestion carries only model-derived fields; callers re-stamp the
// per-request Context and CyclesPct.
type lruCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[cacheKey]*list.Element
}

type lruEntry struct {
	key cacheKey
	val core.Suggestion
}

// newLRUCache builds a cache holding at most max entries; max <= 0 disables
// caching (every Get misses, Put is a no-op).
func newLRUCache(max int) *lruCache {
	return &lruCache{max: max, order: list.New(), items: make(map[cacheKey]*list.Element)}
}

// Get returns the cached suggestion and marks it most recently used.
func (c *lruCache) Get(k cacheKey) (core.Suggestion, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return core.Suggestion{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts or refreshes an entry, evicting the least recently used when
// the bound is exceeded.
func (c *lruCache) Put(k cacheKey, v core.Suggestion) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&lruEntry{key: k, val: v})
	for len(c.items) > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the number of cached inferences.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
