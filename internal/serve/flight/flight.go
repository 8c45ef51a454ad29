// Package flight is the decision provenance flight recorder: a fixed-size
// ring buffer of Records, one per advisory decision, that answers "why did
// Brainy say that" after the fact. The serving tier keeps one ring per
// advisor shard (journaling every advise verdict with its class
// distribution, cache/batch path, and latency) and the adaptive container
// journals its migration decisions — accepted, skipped, and illegal — into
// the same record shape, so one journal format covers the whole
// profile → advice → replacement loop.
//
// The ring is deliberately small and lossy: it is a crash-cart, not an audit
// log. Old records are overwritten at the bound; Total() keeps counting so
// consumers can see how much history scrolled away.
package flight

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
)

// KindProb is one entry of a recorded class distribution. Kinds are stored
// as strings: records are a display/serialization format, and keeping the
// package dependency-free lets every layer (serve shards, adaptive
// containers) journal into the same ring type.
type KindProb struct {
	Kind string  `json:"kind"`
	Prob float64 `json:"prob"`
}

// Record is one journaled decision. Source tells which loop produced it:
//
//	"advise"    one /v1/advise verdict (Path says cache hit or batch miss)
//	"drift"     one confirmed phase-drift event on the ingest path
//	"migration" one adaptive-container migration decision (Verdict says
//	            whether it was applied, completed, or why it was skipped)
//
// Fields that do not apply to a source are left at their zero value and
// omitted from JSON.
type Record struct {
	Seq      uint64 `json:"seq"`       // global journal order across rings
	UnixNano int64  `json:"unix_nano"` // wall clock at journaling
	Source   string `json:"source"`
	Verdict  string `json:"verdict"` // advise: "ok"|"no-model"; migration: "applied"|"completed"|"busy"|"cooldown"|legality verdict

	RequestID string `json:"request_id,omitempty"`
	Context   string `json:"context"`
	Instance  string `json:"instance,omitempty"` // instance key when known
	Shard     int    `json:"shard"`
	Arch      string `json:"arch,omitempty"`

	Digest     string  `json:"digest,omitempty"` // canonical feature digest (inference-key prefix)
	Kind       string  `json:"kind"`             // original / migrating-from kind
	Suggested  string  `json:"suggested,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`

	Path      string `json:"path,omitempty"` // advise resolution: "cache" | "batch"
	BatchID   uint64 `json:"batch_id,omitempty"`
	BatchSize int    `json:"batch_size,omitempty"`

	Registry  string `json:"registry,omitempty"` // model registry fingerprint
	Drift     string `json:"drift,omitempty"`    // drift state of the instance at decision time
	LatencyNs int64  `json:"latency_ns,omitempty"`

	WindowSeq int `json:"window_seq,omitempty"` // migration trigger window
	Votes     int `json:"votes,omitempty"`      // hysteresis votes behind the trigger
	Moved     int `json:"moved,omitempty"`      // elements a completed migration transferred

	Probs    []KindProb `json:"probs,omitempty"`    // class distribution, descending
	Features []float64  `json:"features,omitempty"` // feature vector of the decided profile
}

// Ring is a bounded decision journal. Appends stamp the record's Seq (from
// a counter that may be shared across rings, giving a fleet-wide merge
// order) and wall clock, then overwrite the oldest record at the bound. All
// methods are safe for concurrent use and on a nil *Ring (no-ops), so a
// disabled recorder is just a nil pointer.
type Ring struct {
	seq *atomic.Uint64

	mu   sync.Mutex
	recs ring.Ring[Record]
}

// NewRing builds a ring holding at most size records. seq orders appends;
// pass one shared counter to every ring whose snapshots will be merged, or
// nil to give this ring a private counter.
func NewRing(size int, seq *atomic.Uint64) *Ring {
	if seq == nil {
		seq = new(atomic.Uint64)
	}
	return &Ring{seq: seq, recs: ring.New[Record](max(size, 1))}
}

// Append journals one record, stamping Seq and UnixNano, and returns the
// assigned sequence number (0 on a nil ring).
func (r *Ring) Append(rec Record) uint64 {
	if r == nil {
		return 0
	}
	rec.Seq = r.seq.Add(1)
	rec.UnixNano = time.Now().UnixNano()
	r.mu.Lock()
	r.recs.Push(rec)
	r.mu.Unlock()
	return rec.Seq
}

// Snapshot copies the retained records, oldest first.
func (r *Ring) Snapshot() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recs.Items()
}

// Total reports how many records were ever appended, including ones the
// bound has since overwritten.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recs.Total()
}

// Cap reports the ring's bound, which never changes, so it needs no lock.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return r.recs.Cap()
}
