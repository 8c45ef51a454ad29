package telemetry

// The metric primitives every registry entry is built from. They hold state
// only: a Registry reads each one back as typed Samples, and the text page,
// the JSON view, and the time-series store all render from those samples.
// All types are safe for concurrent use.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// FloatCounter is a monotonically increasing float64 counter for quantities
// that accumulate fractionally, such as simulated machine cycles. It is
// lock-free: Add retries a compare-and-swap on the raw bit pattern.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v, which must be non-negative to keep the counter
// monotone.
func (c *FloatCounter) Add(v float64) { addFloat(&c.bits, v) }

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down — in-flight requests, pool
// occupancy, queue depth. It is lock-free over the raw float64 bit pattern,
// like FloatCounter.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add accumulates d (negative d decreases the gauge).
func (g *Gauge) Add(d float64) { addFloat(&g.bits, d) }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat adds d to the float64 stored as bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// CounterVec is a family of counters sharing one metric name, keyed by a
// rendered label list. Children are created on first use and never removed.
type CounterVec struct {
	mu sync.Mutex
	m  map[string]*Counter
}

// NewCounterVec returns an empty counter family.
func NewCounterVec() *CounterVec {
	return &CounterVec{m: make(map[string]*Counter)}
}

// With returns the counter for the given rendered label list (for example
// `arch="Core2"`), creating it if needed.
func (v *CounterVec) With(labels string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.m[labels]
	if !ok {
		c = &Counter{}
		v.m[labels] = c
	}
	return c
}

// Value returns the count for a label list, zero if absent.
func (v *CounterVec) Value(labels string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.m[labels]; ok {
		return c.Value()
	}
	return 0
}

// Total sums every child counter.
func (v *CounterVec) Total() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var t uint64
	for _, c := range v.m {
		t += c.Value()
	}
	return t
}

// Each calls fn for every child in label-sorted order with the child's
// rendered label list and current value.
func (v *CounterVec) Each(fn func(labels string, value uint64)) {
	v.mu.Lock()
	labels := make([]string, 0, len(v.m))
	children := make(map[string]*Counter, len(v.m))
	for l, c := range v.m {
		labels = append(labels, l)
		children[l] = c
	}
	v.mu.Unlock()
	sort.Strings(labels)
	for _, l := range labels {
		fn(l, children[l].Value())
	}
}

// Histogram observes float64 samples into cumulative buckets, the shape
// /metrics consumers expect for latencies. Bounds are upper limits in
// ascending order; samples above the last bound land in the implicit +Inf
// bucket.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf overflow
	sum    float64
	count  uint64
	min    float64 // smallest observed sample; valid only when count > 0
	max    float64 // largest observed sample; valid only when count > 0

	// Exemplars: the request ID and value of the most recent ObserveExemplar
	// per bucket, so a latency bucket links back to a concrete request.
	// Allocated lazily on the first ObserveExemplar — a histogram observed
	// only through Observe carries no exemplar state at all.
	exemplarIDs  []string
	exemplarVals []float64
}

// DefBuckets is a latency bucket layout (seconds) that resolves both
// cache-hit microsecond responses and multi-second analyze calls.
var DefBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// NewHistogram builds a histogram with the given ascending upper bounds.
// With no bounds it uses DefBuckets.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample, tracking the running extremes alongside the
// bucket counts so consumers can see the exact spread of a distribution
// (bucket bounds only bracket it).
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveExemplar records one sample like Observe and additionally retains
// id as the bucket's exemplar: the identifier of the most recent request
// that landed in that bucket. An empty id observes without touching the
// exemplar state.
func (h *Histogram) ObserveExemplar(v float64, id string) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	if id != "" {
		if h.exemplarIDs == nil {
			h.exemplarIDs = make([]string, len(h.counts))
			h.exemplarVals = make([]float64, len(h.counts))
		}
		h.exemplarIDs[i] = id
		h.exemplarVals[i] = v
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"` // upper bounds, ascending
	Counts []uint64  `json:"counts"` // per-bucket (non-cumulative); last entry is +Inf
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
	Min    float64   `json:"min"` // smallest observed sample; 0 when Count == 0
	Max    float64   `json:"max"` // largest observed sample; 0 when Count == 0

	// Per-bucket exemplars (parallel to Counts); nil unless ObserveExemplar
	// has run. An empty ID means that bucket has no exemplar yet.
	ExemplarIDs  []string  `json:"exemplar_ids,omitempty"`
	ExemplarVals []float64 `json:"exemplar_vals,omitempty"`
}

// Snapshot copies the histogram state under the lock.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
		Min:    h.min,
		Max:    h.max,
	}
	if h.exemplarIDs != nil {
		s.ExemplarIDs = append([]string(nil), h.exemplarIDs...)
		s.ExemplarVals = append([]float64(nil), h.exemplarVals...)
	}
	return s
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// BucketExemplar is one bucket's exemplar: which bucket it annotates (the
// bucket's `le` label as the text page prints it), the request that
// produced it, and the exact sample.
type BucketExemplar struct {
	LE        string  `json:"bucket_le"`
	RequestID string  `json:"request_id"`
	Value     float64 `json:"value"`
}

// Exemplars lists the buckets that carry an exemplar, in bucket order
// (ascending le).
func (s HistogramSnapshot) Exemplars() []BucketExemplar {
	var out []BucketExemplar
	for i, id := range s.ExemplarIDs {
		if id != "" {
			out = append(out, BucketExemplar{LE: s.bucketLE(i), RequestID: id, Value: s.ExemplarVals[i]})
		}
	}
	return out
}

// bucketLE renders bucket i's upper bound as its `le` label value.
func (s HistogramSnapshot) bucketLE(i int) string {
	if i >= len(s.Bounds) || math.IsInf(s.Bounds[i], 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(s.Bounds[i], 'g', -1, 64)
}
