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
	"repro/internal/hysteresis"
	"repro/internal/profile"
	"repro/internal/ring"
)

// Config tunes a Detector or a Tracker. The zero value is usable: defaults
// fill in at New and at each Tracker.Observe.
type Config struct {
	// Window is how many recent snapshot windows blend into one evaluation
	// profile (default 4). A larger blend smooths noise but sees phase
	// shifts later.
	Window int
	// Hysteresis is how many consecutive evaluations must agree on a *new*
	// advice before the detector raises a drift event (default 2). One
	// divergent window is noise; H in a row is a phase.
	Hysteresis int
	// BaselineActual measures divergence from the backend the instance is
	// actually running instead of from the first advice. The default
	// (false) is pure drift detection: the first advice becomes the
	// baseline silently, and only later *changes* fire events. A consumer
	// that acts on events — the adaptive container — sets this so advice
	// that disagrees with reality from the very first evaluation is also
	// confirmed (through the same hysteresis) and raised.
	BaselineActual bool
	// OnEvent, when non-nil, runs synchronously for every drift event a
	// Detector confirms, after internal state has been updated. The
	// detector keeps no event log: a caller that wants the events collects
	// them here or from Observe's return value. A Tracker's owner gets its
	// events from Tracker.Observe alone.
	OnEvent func(Event)
}

func (c Config) withDefaults() Config {
	if c.Window < 1 {
		c.Window = 4
	}
	if c.Hysteresis < 1 {
		c.Hysteresis = 2
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

// Tracker is one instance's drift state: the blend of its recent windows,
// the backend it runs, and the gate its advice passes through. The zero
// value is ready for the first window. It is not safe for concurrent use:
// its owner guards it with a lock it already holds.
type Tracker struct {
	recent ring.Ring[profile.Profile] // the last Config.Window windows
	kind   adt.Kind

	advised    bool
	initial    adt.Kind
	advice     hysteresis.Gate[adt.Kind] // current advice and the streak against it
	confidence float64
	events     int
}

// Observe adds one window of the tracker's instance to its blend, asks
// suggest about the blend, and returns the drift event it confirmed, if
// any: usually none, while advice holds or a streak settles. An error is
// the suggester's (typically no model for the kind), returned after the
// window was recorded. Zero fields of cfg take their defaults; OnEvent is
// the owner's to run.
func (t *Tracker) Observe(rec *profile.WindowRecord, arch string, suggest core.Suggester, cfg Config) (*Event, error) {
	cfg = cfg.withDefaults()
	if t.recent.Cap() == 0 {
		t.recent = ring.New[profile.Profile](cfg.Window)
		t.kind = rec.Kind
	}
	if rec.Kind != t.kind {
		// The instance's backend changed mid-timeline. Either we asked for
		// it (the record's kind matches the advice we raised an event for)
		// or the host swapped on its own; in both cases the blended history
		// describes a container that no longer exists, so restart the blend
		// from this window and clear any in-flight streak. When the new kind
		// matches current advice this is the migration completing — not a
		// new divergence — so the gate settles instead of firing. Otherwise
		// the swap was unsolicited: re-baseline advice on reality so the
		// next divergence is measured from the backend actually running.
		t.recent.Clear()
		t.advice.Streak = 0
		if t.advised {
			t.advice.Current = rec.Kind
		}
		t.kind = rec.Kind
	}
	t.recent.Push(rec.Profile)

	blended := t.blend()
	if blended.Stats.TotalCalls() == 0 {
		return nil, nil // nothing ran in the blend: no workload to advise on
	}
	sug, err := suggest(&blended, arch)
	if err != nil {
		return nil, fmt.Errorf("drift: advising %s: %w", rec.InstanceKey(), err)
	}
	t.confidence = sug.Confidence
	if !t.advised {
		t.advised = true
		t.initial = sug.Suggested
		t.advice.Current = sug.Suggested
		if !cfg.BaselineActual {
			return nil, nil
		}
		// Baseline on the running backend: a first advice that already
		// disagrees with the instance's actual kind is a divergence to
		// confirm through the gate below, not a silent baseline.
		t.advice.Current = t.kind
	}
	from := t.advice.Current
	if !t.advice.Propose(sug.Suggested, cfg.Hysteresis) {
		return nil, nil
	}
	t.events++
	return &Event{
		InstanceKey: rec.InstanceKey(),
		Context:     rec.Context,
		Instance:    rec.Instance,
		Seq:         rec.Seq,
		From:        from,
		To:          sug.Suggested,
		Confidence:  sug.Confidence,
		Votes:       cfg.Hysteresis,
	}, nil
}

// blend merges the retained windows into one evaluation profile: software
// and hardware features accumulate across the blend, identity and state
// fields come from the newest window.
func (t *Tracker) blend() profile.Profile {
	n := t.recent.Len()
	out := t.recent.At(n - 1)
	for i := range n - 1 {
		w := t.recent.At(i)
		out.Stats.Add(w.Stats)
		out.HW = out.HW.Add(w.HW)
		out.Cycles += w.Cycles
	}
	return out
}

// Kind returns the backend the instance ran in its latest window.
func (t *Tracker) Kind() adt.Kind { return t.kind }

// Status returns the tracker's view of its instance. The tracker knows
// nothing of the instance's identity or totals, so InstanceKey, Context,
// Instance, Windows and Ops are left for its owner to fill.
func (t *Tracker) Status() Status {
	return Status{
		Kind:       t.kind,
		Initial:    t.initial,
		Current:    t.advice.Current,
		Confidence: t.confidence,
		Streak:     t.advice.Streak,
		Events:     t.events,
		Advised:    t.advised,
	}
}

// Detector keeps a Tracker per instance key, with the instance's identity
// and totals, and never forgets one: a caller that bounds its instances
// keeps Trackers itself. Safe for concurrent use.
type Detector struct {
	suggest core.Suggester
	cfg     Config

	mu   sync.Mutex
	inst map[string]*timeline
}

// timeline is one Detector instance: its tracker, identity and totals.
type timeline struct {
	Tracker
	context  string
	instance int
	windows  int
	ops      uint64
}

// New builds a detector around a Suggester (Brainy.Suggest of a loaded
// model set, or the deterministic Rules).
func New(suggest core.Suggester, cfg Config) *Detector {
	if suggest == nil {
		panic("drift: New with nil suggester")
	}
	return &Detector{suggest: suggest, cfg: cfg.withDefaults(), inst: map[string]*timeline{}}
}

// Observe feeds one window record into its instance's Tracker and returns
// the drift event it confirmed, if any, after running Config.OnEvent on
// it. Its results are Tracker.Observe's.
func (d *Detector) Observe(rec *profile.WindowRecord, arch string) (*Event, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	key := rec.InstanceKey()
	tl := d.inst[key]
	if tl == nil {
		tl = &timeline{context: rec.Context, instance: rec.Instance}
		d.inst[key] = tl
	}
	tl.windows++
	tl.ops += rec.Ops()
	ev, err := tl.Observe(rec, arch, d.suggest, d.cfg)
	if ev != nil && d.cfg.OnEvent != nil {
		d.cfg.OnEvent(*ev)
	}
	return ev, err
}

// Statuses returns the per-instance state, sorted by instance key.
func (d *Detector) Statuses() []Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Status, 0, len(d.inst))
	for key, tl := range d.inst {
		st := tl.Status()
		st.InstanceKey, st.Context, st.Instance = key, tl.context, tl.instance
		st.Windows, st.Ops = tl.windows, tl.ops
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].InstanceKey < out[j].InstanceKey })
	return out
}
