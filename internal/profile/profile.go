// Package profile turns raw container statistics and machine counters into
// the feature vectors Brainy's models consume, and implements the profiling
// wrapper that stands in for the paper's modified libstdc++: a container
// whose interface functions record software features while the simulated
// machine records hardware features, tagged with the calling context of the
// container's construction site.
package profile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/adt"
	"repro/internal/machine"
	"repro/internal/opstats"
)

// FeatureNames lists, in order, every feature the models see. The first
// block are software features from instrumentation; the block after
// "l1_miss_rate" are hardware features from the (simulated) performance
// counters. Keep in sync with Vector().
var FeatureNames = []string{
	// Software: interface invocation mix (fractions of total calls).
	"insert", "erase", "find", "iterate",
	"push_back", "push_front", "pop_back", "pop_front", "at",
	// Software: per-op costs (average elements touched per invocation).
	"insert_cost", "erase_cost", "find_cost", "iterate_cost",
	// Software: structural events.
	"resizing", "rehashes", "rotations",
	"max_len", "elem_size", "data_size/cache_block_size",
	// Hardware: performance counters.
	"l1_miss_rate", "l2_miss_rate", "tlb_miss_rate", "br_miss_rate",
	"cycles_per_call", "reads_per_call", "writes_per_call", "allocs_per_call",
}

// NumFeatures is the dimensionality of the model input.
var NumFeatures = len(FeatureNames)

// Profile is one container's complete measurement: what the application did
// with it (software features), what the machine observed (hardware
// features), and where it was constructed (calling context).
type Profile struct {
	Context    string           `json:"context"` // construction site, e.g. "xalan/StringCache.busyList"
	Kind       adt.Kind         `json:"kind"`
	OrderAware bool             `json:"order_aware"`
	Stats      opstats.Stats    `json:"stats"`
	HW         machine.Counters `json:"hw"`
	LineBytes  int              `json:"line_bytes"` // cache line size of the profiled machine
	Cycles     float64          `json:"cycles"`     // container-attributed simulated cycles
}

// Vector flattens the profile into the canonical feature vector. Count
// features are normalized to fractions of total interface calls; cost
// features are per-invocation averages; size features are log-compressed so
// that magnitudes spanning decades stay learnable.
func (p *Profile) Vector() []float64 {
	s := &p.Stats
	total := float64(s.TotalCalls())
	if total == 0 {
		total = 1
	}
	frac := func(op opstats.Op) float64 { return float64(s.Count[op]) / total }
	avgCost := func(op opstats.Op) float64 {
		if s.Count[op] == 0 {
			return 0
		}
		return float64(s.Cost[op]) / float64(s.Count[op])
	}
	line := float64(p.LineBytes)
	if line == 0 {
		line = 64
	}
	v := []float64{
		frac(opstats.OpInsert), frac(opstats.OpErase), frac(opstats.OpFind), frac(opstats.OpIterate),
		frac(opstats.OpPushBack), frac(opstats.OpPushFront), frac(opstats.OpPopBack), frac(opstats.OpPopFront), frac(opstats.OpAt),

		math.Log1p(avgCost(opstats.OpInsert)), math.Log1p(avgCost(opstats.OpErase)),
		math.Log1p(avgCost(opstats.OpFind)), math.Log1p(avgCost(opstats.OpIterate)),

		float64(s.Resizes) / total, float64(s.Rehashes) / total, float64(s.Rotations) / total,
		math.Log1p(float64(s.MaxLen)), math.Log1p(float64(s.ElemSize)), float64(s.ElemSize) / line,

		p.HW.L1MissRate(), p.HW.L2MissRate(), p.HW.TLBMissRate(), p.HW.BranchMissRate(),
		math.Log1p(p.Cycles / total),
		math.Log1p(float64(p.HW.Reads) / total), math.Log1p(float64(p.HW.Writes) / total),
		math.Log1p(float64(p.HW.Allocs) / total),
	}
	if len(v) != NumFeatures {
		panic(fmt.Sprintf("profile: feature vector has %d entries, want %d", len(v), NumFeatures))
	}
	return v
}

// HardwareFeatureIndex returns the index of the first hardware feature;
// features at and after this index come from performance counters. The
// no-hardware-features ablation masks them.
func HardwareFeatureIndex() int {
	for i, n := range FeatureNames {
		if n == "l1_miss_rate" {
			return i
		}
	}
	panic("profile: l1_miss_rate not in FeatureNames")
}

// Container wraps an adt.Container built on a machine and attributes
// hardware events per interface invocation: every call reads the machine's
// counters before and after, exactly like the paper's instrumented STL
// functions bracketing each operation with performance-counter reads. This
// keeps attribution correct even when several profiled containers
// interleave on one machine.
type Container struct {
	inner      adt.Container
	mach       *machine.Machine
	context    string
	orderAware bool
	hw         machine.Counters // accumulated per-op deltas

	// win, when non-nil, emits snapshot windows every win.every interface
	// invocations. Nil is the disabled state and keeps the per-operation
	// hot path allocation-free (same contract as the nil telemetry.Tracer).
	win *windowState
}

// NewContainer builds a profiled container of the given kind on m.
// The context string identifies the construction site, the role the
// paper's calling-context tracking plays.
func NewContainer(kind adt.Kind, m *machine.Machine, elemSize uint64, context string, orderAware bool) *Container {
	base := m.Counters()
	c := WrapContainer(nil, m, context, orderAware)
	c.inner = adt.New(kind, m, elemSize)
	// Construction cost (initial allocations) belongs to the container.
	c.AttributeConstruction(base)
	return c
}

// WrapContainer builds the profiling wrapper around an existing container
// running on m — the hook for hosts whose inner container is not a plain
// adt.New backend (the adaptive container wraps its migrating inner this
// way). Unlike NewContainer it attributes no construction cost; callers
// that built inner on m should bracket the construction with
// AttributeConstruction.
func WrapContainer(inner adt.Container, m *machine.Machine, context string, orderAware bool) *Container {
	return &Container{
		inner:      inner,
		mach:       m,
		context:    context,
		orderAware: orderAware,
	}
}

// AttributeConstruction charges the machine-counter delta since base to the
// container, the same attribution NewContainer performs for the initial
// allocations of its backend.
func (c *Container) AttributeConstruction(base machine.Counters) {
	c.hw = c.hw.Add(c.mach.Counters().Sub(base))
}

// window brackets one interface invocation with counter reads. When
// windowing is enabled the invocation also advances the window clock; the
// disabled path adds exactly one nil check.
func (c *Container) window(op func()) {
	before := c.mach.Counters()
	op()
	c.hw = c.hw.Add(c.mach.Counters().Sub(before))
	if c.win != nil {
		c.tickWindow()
	}
}

// Kind implements adt.Container.
func (c *Container) Kind() adt.Kind { return c.inner.Kind() }

// Insert implements adt.Container.
func (c *Container) Insert(key uint64) { c.window(func() { c.inner.Insert(key) }) }

// InsertAt implements adt.Container.
func (c *Container) InsertAt(pos int, key uint64) {
	c.window(func() { c.inner.InsertAt(pos, key) })
}

// PushFront implements adt.Container.
func (c *Container) PushFront(key uint64) { c.window(func() { c.inner.PushFront(key) }) }

// Erase implements adt.Container.
func (c *Container) Erase(key uint64) (ok bool) {
	c.window(func() { ok = c.inner.Erase(key) })
	return ok
}

// EraseFront implements adt.Container.
func (c *Container) EraseFront() (ok bool) {
	c.window(func() { ok = c.inner.EraseFront() })
	return ok
}

// Find implements adt.Container.
func (c *Container) Find(key uint64) (ok bool) {
	c.window(func() { ok = c.inner.Find(key) })
	return ok
}

// Iterate implements adt.Container.
func (c *Container) Iterate(n int) (sum uint64) {
	c.window(func() { sum = c.inner.Iterate(n) })
	return sum
}

// Len implements adt.Container.
func (c *Container) Len() int { return c.inner.Len() }

// Clear implements adt.Container.
func (c *Container) Clear() { c.window(func() { c.inner.Clear() }) }

// Stats implements adt.Container.
func (c *Container) Stats() *opstats.Stats { return c.inner.Stats() }

// Context returns the construction-site label.
func (c *Container) Context() string { return c.context }

// Cycles returns the simulated cycles attributed to the container so far,
// the figure Snapshot reports as Profile.Cycles, without copying the stats.
func (c *Container) Cycles() float64 { return c.hw.Cycles }

// Snapshot produces the profile of every interface invocation so far.
func (c *Container) Snapshot() Profile {
	return Profile{
		Context:    c.context,
		Kind:       c.inner.Kind(),
		OrderAware: c.orderAware,
		Stats:      *c.inner.Stats(),
		HW:         c.hw,
		LineBytes:  c.mach.Config().L1Line,
		Cycles:     c.hw.Cycles,
	}
}

// WriteTrace serializes profiles as JSON lines, the repository's trace-file
// format (one line per container instance).
func WriteTrace(w io.Writer, profiles []Profile) error {
	enc := json.NewEncoder(w)
	for i := range profiles {
		if err := enc.Encode(&profiles[i]); err != nil {
			return fmt.Errorf("profile: encoding trace record %d: %w", i, err)
		}
	}
	return nil
}

// ReadTrace parses a trace written by WriteTrace (or a JSON array of
// profiles) into a slice.
func ReadTrace(r io.Reader) ([]Profile, error) {
	var out []Profile
	err := DecodeRecords(r, func(p *Profile) error {
		out = append(out, *p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeRecords reads profile records from r, calling fn once per record,
// in order. It accepts both of the repository's wire forms: the JSON-lines
// trace format of WriteTrace and a single JSON array of profiles (what HTTP
// clients naturally send). A non-nil error from fn aborts the decode and is
// returned unwrapped, so callers can stop early with sentinel errors.
//
// It reads at most the first MiB of r before the first call to fn. An
// input that ends within it, in the grammar the writers emit, is parsed by
// a schema-specific parser (wire.go); any other input, and any longer one,
// is decoded by encoding/json record by record from its first byte, so a
// long trace streams without being materialized whole. Values, errors and
// how many records reach fn before an error are encoding/json's either way.
//
// Windowed snapshot streams (profile.SnapshotExporter output) decode on
// this same path: a WindowRecord line is a Profile line with extra window_*
// fields, which DecodeRecords ignores — an end-of-run analysis can replay a
// window stream as if each window were an independent profile. Use
// DecodeWindows to keep the window metadata.
func DecodeRecords(r io.Reader, fn func(*Profile) error) error {
	return decodeBody(r, "trace", fn, func(w *WindowRecord) *Profile { return &w.Profile })
}

// decodeStream is the encoding/json reader behind DecodeRecords and
// DecodeWindows: JSON lines or a single JSON array of T, streamed record by
// record. It decodes every body the fast parser does not accept, and is the
// reference the fuzzers hold that parser to. Callback errors abort the
// stream and return unwrapped.
func decodeStream[T any](r io.Reader, what string, fn func(*T) error) error {
	br := bufio.NewReader(r)
	isArray, err := startsWithArray(br)
	if err != nil {
		if err == io.EOF { // empty input: zero records
			return nil
		}
		return fmt.Errorf("profile: reading %s: %w", what, err)
	}
	dec := json.NewDecoder(br)
	n := 0
	decodeOne := func() error {
		var v T
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("profile: decoding %s record %d: %w", what, n, err)
		}
		n++
		return fn(&v)
	}
	if isArray {
		if _, err := dec.Token(); err != nil { // consume '['
			return fmt.Errorf("profile: reading %s array: %w", what, err)
		}
		for dec.More() {
			if err := decodeOne(); err != nil {
				return err
			}
		}
		if _, err := dec.Token(); err != nil { // consume ']'
			return fmt.Errorf("profile: reading %s array end: %w", what, err)
		}
		return nil
	}
	for {
		var v T
		if err := dec.Decode(&v); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("profile: decoding %s record %d: %w", what, n, err)
		}
		n++
		if err := fn(&v); err != nil {
			return err
		}
	}
}

// startsWithArray peeks past leading whitespace to see whether the stream
// is a JSON array.
func startsWithArray(br *bufio.Reader) (bool, error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return false, err
		}
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		default:
			if err := br.UnreadByte(); err != nil {
				return false, err
			}
			return b == '[', nil
		}
	}
}
