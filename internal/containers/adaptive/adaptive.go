// Package adaptive closes the profile → advice → replacement loop in
// process: a self-tuning container that hosts one of the static backends,
// profiles itself through snapshot windows, feeds the windows to a drift
// detector, and — when the detector confirms that the advised kind moved —
// hot-migrates its contents to the new backend while staying fully usable.
//
// The migration is amortized and incremental: both backends are live during
// the move, reads check the new backend then the old, and every interface
// operation moves a bounded batch of elements, so no single call absorbs an
// O(n) rebuild. Replacements respect the Table-1 matrix (including the
// order-obliviousness restriction) and a cooldown keeps flapping advice
// from thrashing the backend.
//
// Windowed profiling is the loop's clock, and two integration details keep
// it honest across a swap: window deltas are computed against a merged
// (monotone) statistics view while two backends are live, and when the
// swap finalizes the window baselines are re-anchored to the fresh backend
// (profile.Container.ReanchorWindow) so the next delta cannot underflow.
// The drift detector sees the timeline's Kind change mid-stream and treats
// it as the migration it asked for, not a new divergence.
package adaptive

import (
	"fmt"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/machine"
	"repro/internal/opstats"
	"repro/internal/profile"
	"repro/internal/serve/flight"
)

// Config tunes an adaptive container. Kind, ElemSize, and Context are
// required; everything else has working defaults.
type Config struct {
	// Kind is the initial backend — what the programmer originally wrote.
	Kind adt.Kind
	// ElemSize is the simulated element size in bytes.
	ElemSize uint64
	// Context is the construction-site label profiling reports under.
	Context string
	// Instance is the construction ordinal at Context (0 for the first).
	Instance int
	// OrderAware marks the workload as dependent on iteration order,
	// restricting migrations to order-preserving replacement rows.
	OrderAware bool
	// Window is how many interface operations each profiling window covers
	// (default 64).
	Window int
	// Detector tunes the embedded drift detector (blend window, hysteresis,
	// gates). Its OnEvent and Events fields are honored in addition to the
	// container's own handling.
	Detector drift.Config
	// Suggest advises on each window blend; nil uses drift.Rules, the
	// model-free advisor.
	Suggest core.Suggester
	// Arch names the architecture the suggester evaluates for (default
	// "Core2").
	Arch string
	// BatchSize is how many elements each interface operation moves while a
	// migration is in flight (default 8).
	BatchSize int
	// CooldownOps is how many interface operations must pass after a
	// migration completes before the next may begin (default 4×Window).
	CooldownOps uint64
	// Sink, when non-nil, also receives every profiling window (an
	// exporter, a ring) alongside the internal drift detector.
	Sink profile.WindowSink
	// Journal, when non-nil, receives one flight.Record per migration
	// decision — applied, completed, and every skip with its reason — in
	// the same record shape the serving tier journals advise verdicts, so
	// one /debug/decisions-style view covers the whole
	// profile → advice → replacement loop.
	Journal *flight.Ring
}

func (c Config) withDefaults() Config {
	if c.Window < 1 {
		c.Window = 64
	}
	if c.Suggest == nil {
		c.Suggest = drift.Rules
	}
	if c.Arch == "" {
		c.Arch = "Core2"
	}
	if c.BatchSize < 1 {
		c.BatchSize = 8
	}
	if c.CooldownOps < 1 {
		c.CooldownOps = 4 * uint64(c.Window)
	}
	return c
}

// Migration records one completed (or in-flight) backend replacement.
type Migration struct {
	From       adt.Kind `json:"from"`
	To         adt.Kind `json:"to"`
	StartOp    uint64   `json:"start_op"` // interface ops when the drift confirmed
	EndOp      uint64   `json:"end_op"`   // ops when the swap finalized (0 while in flight)
	WindowSeq  int      `json:"window_seq"`
	Confidence float64  `json:"confidence"`
	Moved      int      `json:"moved"` // elements the migration transferred
}

// Container is the self-tuning adt.Container. It is not safe for
// concurrent use, matching every other container in the repository.
type Container struct {
	cfg  Config
	mig  *migrator
	prof *profile.Container
	det  *drift.Detector
	sink *drift.DetectorSink

	ops        uint64 // completed interface operations
	lastMigEnd uint64 // ops when the last migration finalized
	migrations []Migration

	// Event accounting: advice the container heard but did not act on.
	ignoredBusy     int // events during an in-flight migration
	ignoredCooldown int // events inside the post-migration cooldown
	ignoredIllegal  int // events outside the replacement matrix
}

// New builds an adaptive container on m.
func New(m *machine.Machine, cfg Config) *Container {
	cfg = cfg.withDefaults()
	a := &Container{cfg: cfg}

	userOnEvent := cfg.Detector.OnEvent
	dcfg := cfg.Detector
	// The container acts on events, so divergence is measured from the
	// backend actually running: advice that disagrees from the first
	// evaluation must fire too, not just later changes.
	dcfg.BaselineActual = true
	dcfg.OnEvent = func(ev drift.Event) {
		a.onDrift(ev)
		if userOnEvent != nil {
			userOnEvent(ev)
		}
	}
	a.det = drift.New(cfg.Suggest, dcfg)
	a.sink = a.det.Sink(cfg.Arch)

	base := m.Counters()
	a.mig = &migrator{
		model:    m,
		elemSize: cfg.ElemSize,
		cur:      adt.New(cfg.Kind, m, cfg.ElemSize),
		batch:    cfg.BatchSize,
	}
	a.prof = profile.WrapContainer(a.mig, m, cfg.Context, cfg.OrderAware)
	a.prof.AttributeConstruction(base)
	a.prof.EnableWindows(cfg.Window, cfg.Instance, profile.MultiWindowSink(a.sink, cfg.Sink))
	return a
}

// onDrift runs synchronously inside the detector when a window blend
// confirms new advice. It opens a migration only when the container is
// idle, out of cooldown, and the replacement row exists.
func (a *Container) onDrift(ev drift.Event) {
	// The journaled "from" is the backend running when the advice landed;
	// captured before begin so the record never depends on migrator
	// internals mid-transition.
	from := a.mig.Kind()
	switch {
	case a.mig.migrating():
		a.ignoredBusy++
		a.journal("busy", from, &ev, 0)
	case ev.To == from:
		// Advice caught up with a swap we already made; nothing to do.
		a.journal("caught-up", from, &ev, 0)
	case a.ops-a.lastMigEnd < a.cfg.CooldownOps && len(a.migrations) > 0:
		a.ignoredCooldown++
		a.journal("cooldown", from, &ev, 0)
	case !adt.CanReplace(from, ev.To, a.cfg.OrderAware):
		a.ignoredIllegal++
		a.journal(adt.ReplaceVerdict(from, ev.To, a.cfg.OrderAware), from, &ev, 0)
	default:
		a.mig.begin(ev.To)
		a.migrations = append(a.migrations, Migration{
			From:       from,
			To:         ev.To,
			StartOp:    a.ops,
			WindowSeq:  ev.Seq,
			Confidence: ev.Confidence,
		})
		a.journal("applied", from, &ev, 0)
	}
}

// journal appends one migration decision to the configured flight ring.
// Nil ring (the default) costs one branch.
func (a *Container) journal(verdict string, from adt.Kind, ev *drift.Event, moved int) {
	if a.cfg.Journal == nil {
		return
	}
	rec := flight.Record{
		Source:   "migration",
		Verdict:  verdict,
		Context:  a.cfg.Context,
		Instance: fmt.Sprintf("%s#%d", a.cfg.Context, a.cfg.Instance),
		Kind:     from.String(),
		Moved:    moved,
	}
	if ev != nil {
		rec.Suggested = ev.To.String()
		rec.Confidence = ev.Confidence
		rec.WindowSeq = ev.Seq
		rec.Votes = ev.Votes
	}
	a.cfg.Journal.Append(rec)
}

// finishOp runs after every interface operation: it advances the op clock
// and settles a migration whose source just drained.
func (a *Container) finishOp() {
	a.ops++
	a.settle()
}

// settle performs the swap once the in-flight migration has drained its
// source: flush the partial window (computed against the merged stats),
// retire the source, re-anchor the window baselines on the fresh backend.
func (a *Container) settle() {
	if !a.mig.done {
		return
	}
	a.prof.FlushWindow()
	moved := a.mig.finalize()
	a.prof.ReanchorWindow()
	a.lastMigEnd = a.ops
	last := &a.migrations[len(a.migrations)-1]
	last.EndOp = a.ops
	last.Moved = moved
	a.journal("completed", last.From, &drift.Event{
		To: last.To, Confidence: last.Confidence, Seq: last.WindowSeq,
	}, moved)
}

// Kind reports the current backend's kind — the observable that changes
// when the container adapts.
func (a *Container) Kind() adt.Kind { return a.mig.Kind() }

// Insert implements adt.Container.
func (a *Container) Insert(key uint64) { a.prof.Insert(key); a.finishOp() }

// InsertAt implements adt.Container.
func (a *Container) InsertAt(pos int, key uint64) { a.prof.InsertAt(pos, key); a.finishOp() }

// PushFront implements adt.Container.
func (a *Container) PushFront(key uint64) { a.prof.PushFront(key); a.finishOp() }

// Erase implements adt.Container.
func (a *Container) Erase(key uint64) bool {
	ok := a.prof.Erase(key)
	a.finishOp()
	return ok
}

// EraseFront implements adt.Container.
func (a *Container) EraseFront() bool {
	ok := a.prof.EraseFront()
	a.finishOp()
	return ok
}

// Find implements adt.Container.
func (a *Container) Find(key uint64) bool {
	ok := a.prof.Find(key)
	a.finishOp()
	return ok
}

// Iterate implements adt.Container.
func (a *Container) Iterate(n int) uint64 {
	sum := a.prof.Iterate(n)
	a.finishOp()
	return sum
}

// Len implements adt.Container.
func (a *Container) Len() int { return a.prof.Len() }

// Clear implements adt.Container.
func (a *Container) Clear() { a.prof.Clear(); a.finishOp() }

// Stats implements adt.Container. While a migration is in flight this is
// the monotone merge of both live backends.
func (a *Container) Stats() *opstats.Stats { return a.prof.Stats() }

// Migrating reports whether a migration is in flight.
func (a *Container) Migrating() bool { return a.mig.migrating() }

// Migrations returns the replacement log, oldest first. An in-flight
// migration appears with EndOp zero.
func (a *Container) Migrations() []Migration {
	out := make([]Migration, len(a.migrations))
	copy(out, a.migrations)
	return out
}

// IgnoredEvents reports drift events the container heard but did not act
// on: confirmed while a migration was already in flight, inside the
// cooldown, or outside the replacement matrix.
func (a *Container) IgnoredEvents() (busy, cooldown, illegal int) {
	return a.ignoredBusy, a.ignoredCooldown, a.ignoredIllegal
}

// DriftSkipped reports how many windows the suggester failed to advise on
// (no model for the backend's kind) — zero when the advisor covers every
// kind the container passes through.
func (a *Container) DriftSkipped() uint64 { return a.sink.Skipped() }

// Detector exposes the embedded drift detector for status introspection.
func (a *Container) Detector() *drift.Detector { return a.det }

// Snapshot returns the lifetime profile of the container, like
// profile.Container.Snapshot.
func (a *Container) Snapshot() profile.Profile { return a.prof.Snapshot() }

// FlushWindow closes the current partial profiling window, for end-of-run
// reporting. An event confirmed by that flush can open a migration no
// further operation will ever pump, so any in-flight migration is driven to
// completion here — amortization is moot once the run is over.
func (a *Container) FlushWindow() {
	a.prof.FlushWindow()
	for a.mig.migrating() {
		a.mig.step()
		a.settle()
	}
}

// Ops returns the number of interface operations performed so far.
func (a *Container) Ops() uint64 { return a.ops }
