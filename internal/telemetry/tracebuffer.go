package telemetry

import (
	"sync"
	"time"

	"repro/internal/ring"
)

// Limits on the tail-sampler's in-progress state: how many distinct traces
// may buffer concurrently before new traces are dropped, and how many spans
// one trace may accumulate before further spans are discarded. Both bound
// memory against instrumentation bugs (roots that never End, span loops)
// rather than normal traffic — a request trace here is a handful of spans.
const (
	maxPendingTraces = 256
	maxSpansPerTrace = 64
)

// Trace is one retained trace: the root span, every buffered span of the
// trace (in the order they finished), and why the tail-sampler kept it.
type Trace struct {
	TraceID ID         `json:"trace_id"`
	Root    SpanData   `json:"root"`
	Spans   []SpanData `json:"spans"`
	Reason  string     `json:"reason"` // "slow" | "error"
}

// TraceBuffer is a tail-sampling span exporter: it buffers the spans of each
// in-flight trace and, when the trace's root span ends, keeps the whole
// trace in a bounded ring only if the root exceeded the slow threshold or
// any span carries an "error" attribute. Everything else is discarded — the
// buffer holds the interesting 0.1%, not an audit log. All methods are safe
// for concurrent use and on a nil *TraceBuffer (no-ops, zero allocations),
// the repository's disabled-observability contract.
type TraceBuffer struct {
	slow time.Duration

	mu       sync.Mutex
	pending  map[ID][]SpanData
	retained ring.Ring[Trace]
	dropped  uint64 // spans dropped by the pending-state bounds
}

// NewTraceBuffer builds a tail sampler that retains up to size traces whose
// root span ran at least slow (slow <= 0 retains only errored traces).
func NewTraceBuffer(slow time.Duration, size int) *TraceBuffer {
	return &TraceBuffer{
		slow:     slow,
		pending:  make(map[ID][]SpanData, maxPendingTraces),
		retained: ring.New[Trace](max(size, 1)),
	}
}

// Slow reports the configured root-duration threshold.
func (b *TraceBuffer) Slow() time.Duration {
	if b == nil {
		return 0
	}
	return b.slow
}

// ExportSpan implements Exporter. Non-root spans buffer under their trace;
// a root span (ParentID zero) completes the trace and decides its fate.
func (b *TraceBuffer) ExportSpan(d SpanData) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	spans, known := b.pending[d.TraceID]
	if d.ParentID != 0 {
		switch {
		case known && len(spans) >= maxSpansPerTrace:
			b.dropped++
		case !known && len(b.pending) >= maxPendingTraces:
			b.dropped++
		default:
			b.pending[d.TraceID] = append(spans, d)
		}
		return
	}
	// Root ended: the trace is complete.
	delete(b.pending, d.TraceID)
	reason := ""
	if b.slow > 0 && d.Duration() >= b.slow {
		reason = "slow"
	} else if spanHasError(d) {
		reason = "error"
	} else {
		for _, s := range spans {
			if spanHasError(s) {
				reason = "error"
				break
			}
		}
	}
	if reason == "" {
		return
	}
	b.retained.Push(Trace{
		TraceID: d.TraceID,
		Root:    d,
		Spans:   append(spans, d),
		Reason:  reason,
	})
}

// spanHasError reports whether the span carries an "error" attribute that
// is not explicitly false.
func spanHasError(d SpanData) bool {
	v := d.Attr("error")
	if v == nil {
		return false
	}
	if f, ok := v.(bool); ok {
		return f
	}
	return true
}

// Snapshot copies the retained traces, oldest first.
func (b *TraceBuffer) Snapshot() []Trace {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.retained.Items()
}

// Stats reports the buffer's occupancy: in-flight traces still buffering,
// retained traces, traces ever retained (including overwritten), and spans
// dropped by the pending-state bounds.
func (b *TraceBuffer) Stats() (pending, retained int, total, dropped uint64) {
	if b == nil {
		return 0, 0, 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending), b.retained.Len(), b.retained.Total(), b.dropped
}

// Cap reports the retained-ring bound (0 on a nil buffer).
func (b *TraceBuffer) Cap() int {
	if b == nil {
		return 0
	}
	return b.retained.Cap()
}

// fanout forwards every span to a list of exporters.
type fanout struct {
	exps []Exporter
}

func (f fanout) ExportSpan(d SpanData) {
	for _, e := range f.exps {
		e.ExportSpan(d)
	}
}

// Fanout composes exporters: each finished span goes to every non-nil
// exporter in order. With zero usable exporters it returns nil, so
// NewTracer(Fanout()) is the disabled tracer; with exactly one it returns
// that exporter unwrapped.
func Fanout(exps ...Exporter) Exporter {
	kept := make([]Exporter, 0, len(exps))
	for _, e := range exps {
		if e != nil {
			kept = append(kept, e)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return fanout{exps: kept}
}
