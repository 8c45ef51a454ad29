package profile

// This file gives the profiler a time axis. The paper's analysis (and this
// repository's Snapshot path) reduces a whole run to one feature vector per
// container instance, so an instance whose workload shifts mid-run — a
// build phase followed by a query phase — gets a single blended label.
// Snapshot windows fix that: every N interface invocations the container
// emits the *delta* of its software features and hardware counters since
// the previous window, producing a per-instance feature timeline that
// downstream consumers (the drift detector, the advisor's ingestion
// endpoint, brainy-top) can watch move.
//
// Windowing is off by default and follows the nil-disabled pattern of
// telemetry.Tracer: a container without a window state pays one nil check
// per operation and allocates nothing.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/machine"
	"repro/internal/opstats"
	"repro/internal/ring"
)

// WindowRecord is one snapshot window: the software-feature and
// hardware-counter delta of one container instance over a span of
// interface operations. The embedded Profile holds the delta, so a window
// is itself a valid model input (its Vector() describes just that span of
// the run) and a window stream decodes through the ordinary DecodeRecords
// path; the window_* fields carry the position of the delta on the
// instance's timeline.
type WindowRecord struct {
	Profile
	// Instance is the construction ordinal of this container at its
	// context, distinguishing timelines when one site allocates many
	// containers.
	Instance int `json:"instance"`
	// Seq numbers the instance's windows from zero in emission order.
	Seq int `json:"window_seq"`
	// StartOp and EndOp delimit the window in cumulative interface
	// invocations of the instance: the window covers (StartOp, EndOp].
	StartOp uint64 `json:"window_start_op"`
	EndOp   uint64 `json:"window_end_op"`
	// Len is the container's length when the window closed.
	Len int `json:"window_len"`
}

// Ops returns the number of interface invocations the window covers.
func (w *WindowRecord) Ops() uint64 { return w.EndOp - w.StartOp }

// InstanceKey identifies the timeline the window belongs to:
// "context#instance".
func (w *WindowRecord) InstanceKey() string {
	return w.Context + "#" + strconv.Itoa(w.Instance)
}

// WindowSink receives finished windows. Implementations must copy the
// record if they retain it — the pointer is only valid for the call — and
// must be safe for concurrent use when containers on different machines
// share one sink.
type WindowSink interface {
	EmitWindow(*WindowRecord)
}

// windowState is the per-container window clock: how often to emit, the
// cumulative snapshots the next delta subtracts from, and where finished
// windows go.
type windowState struct {
	every     uint64 // interface invocations per window
	sinceLast uint64 // invocations since the last window closed
	ops       uint64 // cumulative invocations
	seq       int
	startOp   uint64 // cumulative invocation count at window open
	lastStats opstats.Stats
	lastHW    machine.Counters
	instance  int
	sink      WindowSink
}

// EnableWindows turns on snapshot windows for the container: every `every`
// interface invocations a WindowRecord is emitted to sink. instance is the
// construction ordinal at the container's context (0 for the first).
// Operations performed before the call — including construction cost —
// land in the first window. Panics on every < 1 or a nil sink; use a nil
// *windowState (the default) to keep windowing off.
func (c *Container) EnableWindows(every, instance int, sink WindowSink) {
	if every < 1 {
		panic(fmt.Sprintf("profile: window size %d < 1", every))
	}
	if sink == nil {
		panic("profile: EnableWindows with nil sink")
	}
	c.win = &windowState{
		every:    uint64(every),
		instance: instance,
		sink:     sink,
	}
}

// tickWindow advances the window clock by one interface invocation and
// closes the window at the boundary. Between boundaries it touches only
// two integers, so an enabled container still allocates nothing except
// when a window actually closes.
func (c *Container) tickWindow() {
	w := c.win
	w.ops++
	w.sinceLast++
	if w.sinceLast < w.every {
		return
	}
	c.closeWindow()
}

// FlushWindow closes the current partial window, emitting whatever
// operations have accumulated since the last boundary. End-of-run code
// calls it so the tail of a timeline is not silently dropped; it is a
// no-op when windowing is off or no operation has happened since the last
// boundary.
func (c *Container) FlushWindow() {
	if c.win == nil || c.win.sinceLast == 0 {
		return
	}
	c.closeWindow()
}

// ReanchorWindow resets the window delta baselines to the inner container's
// current statistics. The adaptive container calls it after hot-swapping
// its backend: the retired backend's cumulative statistics leave with it,
// so without re-anchoring the next closeWindow would subtract the old
// (larger) baseline from the fresh backend's near-zero counters and
// underflow. A no-op when windowing is off; the op axis (seq, startOp) is
// preserved so the timeline stays continuous across the swap.
func (c *Container) ReanchorWindow() {
	if c.win == nil {
		return
	}
	c.win.lastStats = *c.inner.Stats()
	c.win.lastHW = c.hw
}

// closeWindow materializes the delta since the previous boundary and hands
// it to the sink.
func (c *Container) closeWindow() {
	w := c.win
	cur := *c.inner.Stats()
	rec := WindowRecord{
		Profile: Profile{
			Context:    c.context,
			Kind:       c.inner.Kind(),
			OrderAware: c.orderAware,
			Stats:      cur.Sub(w.lastStats),
			HW:         c.hw.Sub(w.lastHW),
			LineBytes:  c.mach.Config().L1Line,
		},
		Instance: w.instance,
		Seq:      w.seq,
		StartOp:  w.startOp,
		EndOp:    w.ops,
		Len:      c.inner.Len(),
	}
	rec.Cycles = rec.HW.Cycles
	w.lastStats = cur
	w.lastHW = c.hw
	w.seq++
	w.startOp = w.ops
	w.sinceLast = 0
	w.sink.EmitWindow(&rec)
}

// WindowRing is a bounded, concurrency-safe ring buffer of the most recent
// windows — the in-process retention tier. A full ring overwrites its
// oldest record, so memory stays capped no matter how long the run.
type WindowRing struct {
	mu   sync.Mutex
	recs ring.Ring[WindowRecord]
}

// NewWindowRing builds a ring holding at most capacity windows.
func NewWindowRing(capacity int) *WindowRing {
	if capacity < 1 {
		panic(fmt.Sprintf("profile: window ring capacity %d < 1", capacity))
	}
	return &WindowRing{recs: ring.New[WindowRecord](capacity)}
}

// EmitWindow implements WindowSink.
func (r *WindowRing) EmitWindow(w *WindowRecord) {
	r.mu.Lock()
	r.recs.Push(*w)
	r.mu.Unlock()
}

// Records returns the retained windows, oldest first.
func (r *WindowRing) Records() []WindowRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recs.Items()
}

// Total returns how many windows were emitted over the ring's lifetime,
// including ones already overwritten.
func (r *WindowRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recs.Total()
}

// SnapshotExporter streams windows as JSON lines, the repository's
// trace-file convention — the durable tier next to WindowRing's in-process
// one. Writes are buffered; call Flush (or Close) before reading the file.
// The first write error sticks and is reported by Close, mirroring
// telemetry.JSONLinesExporter.
type SnapshotExporter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	err error
}

// NewSnapshotExporter wraps w. If w is also an io.Closer, Close closes it.
func NewSnapshotExporter(w io.Writer) *SnapshotExporter {
	e := &SnapshotExporter{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		e.c = c
	}
	return e
}

// EmitWindow implements WindowSink.
func (e *SnapshotExporter) EmitWindow(w *WindowRecord) {
	b, err := json.Marshal(w)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	if err != nil {
		e.err = err
		return
	}
	b = append(b, '\n')
	if _, err := e.bw.Write(b); err != nil {
		e.err = err
	}
}

// Flush drains the buffer to the underlying writer.
func (e *SnapshotExporter) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	return e.bw.Flush()
}

// Close flushes and closes the underlying writer (when it is closable),
// returning the first error the exporter hit.
func (e *SnapshotExporter) Close() error {
	ferr := e.Flush()
	if e.c != nil {
		if cerr := e.c.Close(); ferr == nil {
			ferr = cerr
		}
	}
	return ferr
}

// multiSink fans one window out to several sinks in order.
type multiSink []WindowSink

// EmitWindow implements WindowSink.
func (m multiSink) EmitWindow(w *WindowRecord) {
	for _, s := range m {
		s.EmitWindow(w)
	}
}

// MultiWindowSink combines sinks: each window goes to every sink, in
// argument order. Nil sinks are skipped; with zero or one live sink no
// wrapper is allocated.
func MultiWindowSink(sinks ...WindowSink) WindowSink {
	live := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// WriteWindows serializes windows as JSON lines, the batch dual of
// SnapshotExporter for callers that already hold a slice (a ring drain, a
// test fixture).
func WriteWindows(w io.Writer, windows []WindowRecord) error {
	enc := json.NewEncoder(w)
	for i := range windows {
		if err := enc.Encode(&windows[i]); err != nil {
			return fmt.Errorf("profile: encoding window record %d: %w", i, err)
		}
	}
	return nil
}

// DecodeWindows reads window records from r, calling fn once per record.
// It accepts the same two wire forms as DecodeRecords (JSON lines or one
// JSON array), reads r as DecodeRecords does, and has the same
// callback-error contract. fn may keep the records it is given: the decoder
// never reuses one. Records are not reordered: interleaved instances
// and out-of-order sequence numbers are the caller's concern, which keeps
// the decoder usable on long streams: past the first MiB it holds one
// record at a time, though a stream that has not ended reaches fn only
// once that first MiB has arrived.
func DecodeWindows(r io.Reader, fn func(*WindowRecord) error) error {
	return decodeBody(r, "window", fn, func(w *WindowRecord) *WindowRecord { return w })
}

// ReadWindows parses a complete window stream into a slice.
func ReadWindows(r io.Reader) ([]WindowRecord, error) {
	var out []WindowRecord
	err := DecodeWindows(r, func(w *WindowRecord) error {
		out = append(out, *w)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
