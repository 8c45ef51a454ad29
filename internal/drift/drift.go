// Package drift watches per-instance window timelines for phase changes:
// moments where the container a workload *should* use stops matching the
// advice the run started with. Brainy's end-of-run analysis necessarily
// blends a whole execution into one verdict; an application with a build
// phase (append-heavy, vector-friendly) followed by a query phase
// (find-heavy, hash-friendly) deserves to know that its best container
// changed mid-run. The detector re-runs a Suggester over a sliding blend of
// recent snapshot windows and raises an Event when the advice diverges —
// with hysteresis, so one noisy window does not flap the verdict.
package drift

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/opstats"
	"repro/internal/profile"
)

// Config tunes a Detector. The zero value is usable: defaults fill in at
// New.
type Config struct {
	// Window is how many recent snapshot windows blend into one evaluation
	// profile (default 4). A larger blend smooths noise but sees phase
	// shifts later.
	Window int
	// Hysteresis is how many consecutive evaluations must agree on a *new*
	// advice before the detector raises a drift event (default 2). One
	// divergent window is noise; H in a row is a phase.
	Hysteresis int
	// MinOps skips evaluation while the blended windows cover fewer than
	// this many interface invocations (default 1 — evaluate always).
	MinOps uint64
	// MinConfidence ignores verdicts below this model confidence; an
	// ignored verdict neither advances nor resets a streak.
	MinConfidence float64
	// BaselineActual measures divergence from the backend the instance is
	// actually running instead of from the first advice. The default
	// (false) is pure drift detection: the first advice becomes the
	// baseline silently, and only later *changes* fire events. A consumer
	// that acts on events — the adaptive container — sets this so advice
	// that disagrees with reality from the very first evaluation is also
	// confirmed (through the same hysteresis) and raised.
	BaselineActual bool
	// Events, when non-nil, is incremented once per drift event — wire it
	// to the telemetry registry's brainy_drift_events_total.
	Events *opstats.Counter
	// OnEvent, when non-nil, runs synchronously for every drift event,
	// after internal state has been updated.
	OnEvent func(Event)
}

func (c Config) withDefaults() Config {
	if c.Window < 1 {
		c.Window = 4
	}
	if c.Hysteresis < 1 {
		c.Hysteresis = 2
	}
	if c.MinOps < 1 {
		c.MinOps = 1
	}
	return c
}

// Event is one confirmed phase drift: the advised container for an
// instance changed and stayed changed for Hysteresis evaluations.
type Event struct {
	InstanceKey string   `json:"instance_key"`
	Context     string   `json:"context"`
	Instance    int      `json:"instance"`
	Seq         int      `json:"window_seq"` // window at which the drift was confirmed
	From        adt.Kind `json:"from"`       // previously advised kind
	To          adt.Kind `json:"to"`         // newly advised kind
	Confidence  float64  `json:"confidence"` // confidence of the confirming verdict
	Votes       int      `json:"votes"`      // consecutive agreeing verdicts that confirmed it
}

// String renders the event as one log line.
func (e Event) String() string {
	return fmt.Sprintf("drift %s @ window %d: %s -> %s (confidence %.2f)",
		e.InstanceKey, e.Seq, e.From, e.To, e.Confidence)
}

// Status is the detector's current view of one instance, shaped for
// dashboards: where the advice started, where it is now, and how unsettled
// it looks.
type Status struct {
	InstanceKey string   `json:"instance_key"`
	Context     string   `json:"context"`
	Instance    int      `json:"instance"`
	Kind        adt.Kind `json:"kind"`    // what the instance actually is
	Windows     int      `json:"windows"` // windows observed
	Ops         uint64   `json:"ops"`     // interface invocations observed
	Initial     adt.Kind `json:"initial"` // first advised kind
	Current     adt.Kind `json:"current"` // currently advised kind
	Confidence  float64  `json:"confidence"`
	Streak      int      `json:"streak"` // consecutive divergent verdicts pending
	Events      int      `json:"events"` // drift events raised for this instance
	Advised     bool     `json:"advised"`
}

// Drifted reports whether the advice ever moved off its initial value.
func (s Status) Drifted() bool { return s.Events > 0 }

// instState is the per-timeline sliding window and hysteresis machine.
type instState struct {
	recent  []profile.WindowRecord // ring of the last Config.Window records
	next    int
	windows int
	ops     uint64

	advised    bool
	initial    adt.Kind
	current    adt.Kind
	confidence float64
	pending    adt.Kind
	streak     int
	events     int

	context  string
	instance int
	kind     adt.Kind
}

// Detector runs a Suggester over sliding blends of window records, one
// state machine per instance timeline. Safe for concurrent use.
type Detector struct {
	suggest core.Suggester
	cfg     Config

	mu   sync.Mutex
	inst map[string]*instState
	evs  []Event
}

// New builds a detector around a Suggester (Brainy.Suggest of a loaded
// model set, or the deterministic Rules).
func New(suggest core.Suggester, cfg Config) *Detector {
	if suggest == nil {
		panic("drift: New with nil suggester")
	}
	return &Detector{suggest: suggest, cfg: cfg.withDefaults(), inst: map[string]*instState{}}
}

// Observe feeds one window record into its instance's timeline and returns
// the drift event it confirmed, if any. A nil event with a nil error is the
// common case: advice unchanged (or still settling inside the hysteresis
// streak). The error surfaces Suggester failures — typically a missing
// model for the record's container kind — after the window has still been
// recorded, so timelines keep accumulating across advisory gaps.
func (d *Detector) Observe(rec *profile.WindowRecord, arch string) (*Event, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	key := rec.InstanceKey()
	st := d.inst[key]
	if st == nil {
		st = &instState{
			recent:   make([]profile.WindowRecord, 0, d.cfg.Window),
			context:  rec.Context,
			instance: rec.Instance,
			kind:     rec.Kind,
		}
		d.inst[key] = st
	}
	if len(st.recent) < cap(st.recent) {
		st.recent = append(st.recent, *rec)
	} else {
		st.recent[st.next] = *rec
		st.next = (st.next + 1) % cap(st.recent)
	}
	if rec.Kind != st.kind {
		// The instance's backend changed mid-timeline. Either we asked for
		// it (the record's kind matches the advice we raised an event for)
		// or the host swapped on its own; in both cases the blended history
		// describes a container that no longer exists, so restart the blend
		// from this window and clear any in-flight streak. When the new kind
		// matches current advice this is the migration completing — not a
		// new divergence — so the state machine settles instead of firing.
		st.recent = st.recent[:0]
		st.recent = append(st.recent, *rec)
		st.next = 0
		st.streak = 0
		st.pending = rec.Kind
		if st.advised && rec.Kind != st.current {
			// Unsolicited swap: re-baseline advice on reality so the next
			// divergence is measured from the backend actually running.
			st.current = rec.Kind
		}
		st.kind = rec.Kind
	}
	st.windows++
	st.ops += rec.Ops()

	blended := st.blend()
	if blended.Stats.TotalCalls() < d.cfg.MinOps {
		return nil, nil
	}
	sug, err := d.suggest(&blended, arch)
	if err != nil {
		return nil, fmt.Errorf("drift: advising %s: %w", key, err)
	}
	if d.cfg.MinConfidence > 0 && sug.Confidence < d.cfg.MinConfidence {
		return nil, nil // too unsure to move the state machine either way
	}
	if !st.advised {
		st.advised = true
		st.initial = sug.Suggested
		st.current = sug.Suggested
		st.confidence = sug.Confidence
		if !d.cfg.BaselineActual {
			return nil, nil
		}
		// Baseline on the running backend: a first advice that already
		// disagrees with the instance's actual kind is a divergence to
		// confirm through the streak below, not a silent baseline.
		st.current = st.kind
	}
	st.confidence = sug.Confidence
	if sug.Suggested == st.current {
		st.streak = 0
		return nil, nil
	}
	if sug.Suggested == st.pending {
		st.streak++
	} else {
		st.pending = sug.Suggested
		st.streak = 1
	}
	if st.streak < d.cfg.Hysteresis {
		return nil, nil
	}
	ev := Event{
		InstanceKey: key,
		Context:     st.context,
		Instance:    st.instance,
		Seq:         rec.Seq,
		From:        st.current,
		To:          st.pending,
		Confidence:  sug.Confidence,
		Votes:       st.streak,
	}
	st.current = st.pending
	st.streak = 0
	st.events++
	d.evs = append(d.evs, ev)
	if d.cfg.Events != nil {
		d.cfg.Events.Inc()
	}
	if d.cfg.OnEvent != nil {
		d.cfg.OnEvent(ev)
	}
	return &ev, nil
}

// blend merges the retained windows into one evaluation profile: software
// and hardware features accumulate across the blend, identity and state
// fields come from the newest window.
func (st *instState) blend() profile.Profile {
	newest := st.recent[(st.next+len(st.recent)-1)%len(st.recent)]
	out := newest.Profile
	for i := range st.recent {
		if i == (st.next+len(st.recent)-1)%len(st.recent) {
			continue
		}
		w := &st.recent[i]
		out.Stats.Add(w.Stats)
		out.HW = out.HW.Add(w.HW)
		out.Cycles += w.Cycles
	}
	return out
}

// Events returns every drift event observed so far, in confirmation order.
func (d *Detector) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Event, len(d.evs))
	copy(out, d.evs)
	return out
}

// Statuses returns the per-instance state, sorted by instance key — the
// dashboard's row set.
func (d *Detector) Statuses() []Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Status, 0, len(d.inst))
	for key, st := range d.inst {
		out = append(out, st.status(key))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].InstanceKey < out[j].InstanceKey })
	return out
}

// Status returns one instance's state by key. A direct map read under the
// mutex: the dashboard polls this per row, so it must not pay the
// snapshot-and-sort cost of Statuses.
func (d *Detector) Status(key string) (Status, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.inst[key]
	if st == nil {
		return Status{}, false
	}
	return st.status(key), true
}

// Forget drops the state kept for one instance, so a caller that bounds
// its set of live instances (the serving tier's timeline LRU) bounds the
// detector too. Events already raised for the instance stay in Events.
func (d *Detector) Forget(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.inst, key)
}

func (st *instState) status(key string) Status {
	return Status{
		InstanceKey: key,
		Context:     st.context,
		Instance:    st.instance,
		Kind:        st.kind,
		Windows:     st.windows,
		Ops:         st.ops,
		Initial:     st.initial,
		Current:     st.current,
		Confidence:  st.confidence,
		Streak:      st.streak,
		Events:      st.events,
		Advised:     st.advised,
	}
}
