// Package slo evaluates declarative service-level objectives against the
// in-process time-series store. Each objective defines a good/total signal —
// availability from counter deltas, latency from a histogram threshold,
// saturation from gauge readings — and is judged by multi-window error-budget
// burn rate: how many times faster than "allowed" the budget is burning over
// a fast and a slow window. Both windows must agree before a verdict is even
// proposed (the fast window confirms the problem is still happening, the
// slow window that it is not a blip), and a proposed verdict must then
// repeat for a hysteresis streak before the reported state flips.
//
// The second stage is the hysteresis.Gate that drift.Detector also uses:
// the advisor already refuses to re-plan a container off one divergent
// window, and the serving tier deserves the same discipline before
// declaring itself degraded — flapping health is worse than late health,
// for load balancers and operators alike. The window reads stay here:
// drift blends profile windows, while an objective reads burn rates from
// the time-series store and counts an empty window as recovery.
package slo

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/hysteresis"
	"repro/internal/telemetry/tsdb"
)

// Kind selects how an objective reads its good/total signal from the store.
type Kind string

const (
	// Availability counts bad vs. total events from counter deltas.
	Availability Kind = "availability"
	// Latency treats histogram observations over a threshold as bad.
	Latency Kind = "latency"
	// Saturation treats gauge readings at or above a limit as bad.
	Saturation Kind = "saturation"
)

// State is a health verdict, ordered ok < degraded < critical.
type State string

const (
	StateOK       State = "ok"
	StateDegraded State = "degraded"
	StateCritical State = "critical"
)

// rank orders states by severity.
func rank(s State) int {
	switch s {
	case StateCritical:
		return 2
	case StateDegraded:
		return 1
	default:
		return 0
	}
}

// Objective is one declarative SLO. Target is the required good fraction
// (e.g. 0.999); the remainder is the error budget the burn rate is measured
// against. Series selection uses the sampler's series names — a metric name,
// optionally with rendered labels — matched by prefix plus an optional
// contains filter, so one selector can sum a labelled family's children.
type Objective struct {
	Name   string  `json:"name"`
	Kind   Kind    `json:"kind"`
	Target float64 `json:"target"`

	// Availability: total and bad event counters.
	TotalPrefix   string `json:"total_prefix,omitempty"`
	TotalContains string `json:"total_contains,omitempty"`
	BadPrefix     string `json:"bad_prefix,omitempty"`
	BadContains   string `json:"bad_contains,omitempty"`

	// Latency: histogram series; observations above Threshold (seconds)
	// are bad.
	Series    string  `json:"series,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`

	// Saturation: gauge series; readings at or above Max are bad.
	GaugePrefix   string  `json:"gauge_prefix,omitempty"`
	GaugeContains string  `json:"gauge_contains,omitempty"`
	Max           float64 `json:"max,omitempty"`
}

// Config paces the evaluator.
type Config struct {
	// FastWindow (default 1m) confirms a problem is still happening;
	// SlowWindow (default 5m) confirms it is not a blip. Both must burn
	// over a threshold for a verdict.
	FastWindow time.Duration
	SlowWindow time.Duration
	// DegradedBurn (default 1: burning the budget exactly as fast as
	// allowed) and CriticalBurn (default 10) are the burn-rate thresholds.
	DegradedBurn float64
	CriticalBurn float64
	// Hysteresis (default 2) is how many consecutive evaluations must
	// propose the same new state before the reported state flips — the
	// drift.Detector gate, applied to the server's own health.
	Hysteresis int
}

func (c Config) withDefaults() Config {
	if c.FastWindow <= 0 {
		c.FastWindow = time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 5 * time.Minute
	}
	if c.DegradedBurn <= 0 {
		c.DegradedBurn = 1
	}
	if c.CriticalBurn <= 0 {
		c.CriticalBurn = 10
	}
	if c.Hysteresis < 1 {
		c.Hysteresis = 2
	}
	return c
}

// ObjectiveStatus is one objective's evaluated state.
type ObjectiveStatus struct {
	Name     string  `json:"name"`
	Kind     Kind    `json:"kind"`
	State    State   `json:"state"`
	Target   float64 `json:"target"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	FastBad  float64 `json:"fast_bad"`
	FastGood float64 `json:"fast_good"`
	// Reason is non-empty whenever the state is not ok: which burn
	// thresholds tripped, with the measured rates.
	Reason string `json:"reason,omitempty"`
	// Pending/Streak expose the hysteresis gate mid-flip.
	Pending State `json:"pending,omitempty"`
	Streak  int   `json:"streak,omitempty"`
}

// Health is one full evaluation.
type Health struct {
	State       State             `json:"state"`
	Objectives  []ObjectiveStatus `json:"objectives"`
	Evaluations uint64            `json:"evaluations"`
	FastWindow  float64           `json:"fast_window_seconds"`
	SlowWindow  float64           `json:"slow_window_seconds"`
}

// Evaluator judges a set of objectives against one store. Evaluate is
// driven by the sampler's OnSample hook so verdict cadence equals scrape
// cadence; readers take the last computed Health. A nil *Evaluator reports
// an empty ok Health and evaluates nothing.
type Evaluator struct {
	db   *tsdb.DB
	cfg  Config
	objs []Objective

	mu    sync.Mutex
	gates []hysteresis.Gate[State] // per objective: the reported state
	last  Health
	evals uint64
}

// New builds an evaluator over db. Objectives are evaluated in the given
// order on every call to Evaluate.
func New(db *tsdb.DB, objs []Objective, cfg Config) *Evaluator {
	cfg = cfg.withDefaults()
	gates := make([]hysteresis.Gate[State], len(objs))
	for i := range gates {
		gates[i].Current = StateOK
	}
	return &Evaluator{db: db, cfg: cfg, objs: objs, gates: gates,
		last: Health{State: StateOK, FastWindow: cfg.FastWindow.Seconds(), SlowWindow: cfg.SlowWindow.Seconds()}}
}

// badTotal reads one objective's (bad, total) event counts over a window
// ending at now.
func (e *Evaluator) badTotal(o *Objective, window time.Duration, now int64) (bad, total float64) {
	w := window.Nanoseconds()
	switch o.Kind {
	case Availability:
		total, _ = e.db.CounterDelta(o.TotalPrefix, o.TotalContains, w, now)
		bad, _ = e.db.CounterDelta(o.BadPrefix, o.BadContains, w, now)
	case Latency:
		d, ok := e.db.HistogramDelta(o.Series, w, now)
		if ok && d.Count > 0 {
			total = float64(d.Count)
			bad = total * (1 - d.FractionLE(o.Threshold))
		}
	case Saturation:
		over, tot := e.db.GaugeOver(o.GaugePrefix, o.GaugeContains, o.Max, w, now)
		bad, total = float64(over), float64(tot)
	}
	return bad, total
}

// burn converts (bad, total) into an error-budget burn rate: the error rate
// divided by the rate the Target allows. An empty window burns nothing —
// silence is recovery, which keeps the ok verdict reachable after traffic
// stops.
func burn(bad, total, target float64) float64 {
	if total <= 0 {
		return 0
	}
	budget := 1 - target
	if budget <= 0 {
		budget = 1e-9 // a 100% target has no budget; any error saturates
	}
	return (bad / total) / budget
}

// Evaluate runs every objective at time now, proposes each raw verdict to
// its hysteresis gate, and returns (and retains) the resulting Health.
func (e *Evaluator) Evaluate(now time.Time) Health {
	if e == nil {
		return Health{State: StateOK}
	}
	ts := now.UnixNano()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evals++
	h := Health{
		State:       StateOK,
		Objectives:  make([]ObjectiveStatus, 0, len(e.objs)),
		Evaluations: e.evals,
		FastWindow:  e.cfg.FastWindow.Seconds(),
		SlowWindow:  e.cfg.SlowWindow.Seconds(),
	}
	for i := range e.objs {
		o := &e.objs[i]
		fastBad, fastTotal := e.badTotal(o, e.cfg.FastWindow, ts)
		slowBad, slowTotal := e.badTotal(o, e.cfg.SlowWindow, ts)
		fastBurn := burn(fastBad, fastTotal, o.Target)
		slowBurn := burn(slowBad, slowTotal, o.Target)

		// Raw verdict: both windows must agree before anything is even
		// proposed to the hysteresis gate.
		raw := StateOK
		switch {
		case fastBurn >= e.cfg.CriticalBurn && slowBurn >= e.cfg.CriticalBurn:
			raw = StateCritical
		case fastBurn >= e.cfg.DegradedBurn && slowBurn >= e.cfg.DegradedBurn:
			raw = StateDegraded
		}

		g := &e.gates[i]
		g.Propose(raw, e.cfg.Hysteresis)

		os := ObjectiveStatus{
			Name:     o.Name,
			Kind:     o.Kind,
			State:    g.Current,
			Target:   o.Target,
			FastBurn: fastBurn,
			SlowBurn: slowBurn,
			FastBad:  fastBad,
			FastGood: fastTotal - fastBad,
		}
		if g.Streak > 0 {
			os.Pending, os.Streak = g.Pending, g.Streak
		}
		if g.Current != StateOK {
			threshold := e.cfg.DegradedBurn
			if g.Current == StateCritical {
				threshold = e.cfg.CriticalBurn
			}
			os.Reason = fmt.Sprintf("%s: burn fast=%.2f slow=%.2f >= %.2f (target %g)",
				o.Name, fastBurn, slowBurn, threshold, o.Target)
		}
		if rank(g.Current) > rank(h.State) {
			h.State = g.Current
		}
		h.Objectives = append(h.Objectives, os)
	}
	e.last = h
	return h
}

// Health returns the most recent evaluation (an empty ok Health before the
// first Evaluate or on a nil evaluator).
func (e *Evaluator) Health() Health {
	if e == nil {
		return Health{State: StateOK}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}
