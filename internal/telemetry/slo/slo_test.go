package slo

import (
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/tsdb"
)

// harness drives a DB with synthetic scrapes one second apart and evaluates
// after each, mimicking the sampler's OnSample cadence.
type harness struct {
	db  *tsdb.DB
	ev  *Evaluator
	t   time.Time
	ok  float64
	bad float64
}

func newHarness(objs []Objective, cfg Config) *harness {
	db := tsdb.NewDB(32, 64)
	return &harness{db: db, ev: New(db, objs, cfg), t: time.Unix(1000, 0)}
}

// step adds dOK good and dBad bad events, scrapes, and evaluates.
func (h *harness) step(dOK, dBad float64) Health {
	h.ok += dOK
	h.bad += dBad
	h.t = h.t.Add(time.Second)
	h.db.Record(h.t.UnixNano(), []telemetry.Sample{
		{Name: `req{code="200"}`, Type: telemetry.TypeCounter, Value: h.ok},
		{Name: `req{code="500"}`, Type: telemetry.TypeCounter, Value: h.bad},
	})
	return h.ev.Evaluate(h.t)
}

func availObjective() []Objective {
	return []Objective{{
		Name:        "availability",
		Kind:        Availability,
		Target:      0.9, // 10% error budget
		TotalPrefix: "req",
		BadPrefix:   "req",
		BadContains: `code="500"`,
	}}
}

func TestAvailabilityFlipsWithHysteresisAndRecovers(t *testing.T) {
	cfg := Config{FastWindow: 2 * time.Second, SlowWindow: 4 * time.Second, Hysteresis: 2}
	h := newHarness(availObjective(), cfg)

	// Healthy traffic: never leaves ok.
	for i := 0; i < 5; i++ {
		if got := h.step(100, 0); got.State != StateOK {
			t.Fatalf("healthy step %d: state %s, want ok", i, got.State)
		}
	}
	// 100% errors: burn = 10x budget in both windows, but the first
	// agreeing evaluation must only arm the streak.
	got := h.step(0, 100)
	if got.State != StateOK {
		t.Fatalf("first bad eval flipped immediately: %s", got.State)
	}
	if o := got.Objectives[0]; o.Streak != 1 || o.Pending == StateOK {
		t.Fatalf("first bad eval: pending/streak = %s/%d, want armed", o.Pending, o.Streak)
	}
	got = h.step(0, 100)
	if got.State == StateOK {
		t.Fatalf("second agreeing eval did not flip: %+v", got.Objectives[0])
	}
	o := got.Objectives[0]
	if o.Reason == "" || o.FastBurn < 1 {
		t.Fatalf("flipped objective missing reason/burn: %+v", o)
	}
	// Back to clean traffic: windows drain, then hysteresis, then ok.
	var recovered bool
	for i := 0; i < 10; i++ {
		if got = h.step(100, 0); got.State == StateOK {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("never recovered: %+v", got.Objectives[0])
	}
}

func TestCriticalVsDegraded(t *testing.T) {
	cfg := Config{FastWindow: 2 * time.Second, SlowWindow: 2 * time.Second,
		DegradedBurn: 1, CriticalBurn: 8, Hysteresis: 1}
	h := newHarness(availObjective(), cfg)
	h.step(100, 0)
	// 20% errors: burn 2x the 10% budget → degraded, under critical.
	got := h.step(80, 20)
	if got.State != StateDegraded {
		t.Fatalf("state %s, want degraded (burn ~2)", got.State)
	}
	// 100% errors: burn 10x ≥ 8 → critical once both windows agree.
	h.step(0, 100)
	got = h.step(0, 100)
	if got.State != StateCritical {
		t.Fatalf("state %s, want critical: %+v", got.State, got.Objectives[0])
	}
	if got.Objectives[0].Reason == "" {
		t.Fatal("critical objective carries no reason")
	}
}

func TestBothWindowsMustAgree(t *testing.T) {
	// Slow window much longer than the burst: a one-second error spike
	// saturates the fast window but dilutes in the slow one → no verdict.
	cfg := Config{FastWindow: time.Second, SlowWindow: 30 * time.Second,
		DegradedBurn: 5, Hysteresis: 1}
	h := newHarness(availObjective(), cfg)
	for i := 0; i < 20; i++ {
		h.step(100, 0)
	}
	got := h.step(0, 100) // 100% errors this second; ~4.8% over 30s
	o := got.Objectives[0]
	if o.FastBurn < 5 {
		t.Fatalf("fast burn = %g, want saturated", o.FastBurn)
	}
	if o.SlowBurn >= 5 {
		t.Fatalf("slow burn = %g, want diluted below threshold", o.SlowBurn)
	}
	if got.State != StateOK {
		t.Fatalf("one-window spike produced verdict %s, want ok", got.State)
	}
}

func TestLatencyObjective(t *testing.T) {
	db := tsdb.NewDB(8, 32)
	ev := New(db, []Objective{{
		Name:      "advise-p99",
		Kind:      Latency,
		Target:    0.9,
		Series:    "lat",
		Threshold: 0.01,
	}}, Config{FastWindow: 2 * time.Second, SlowWindow: 2 * time.Second, Hysteresis: 1})

	now := time.Unix(1000, 0)
	rec := func(fast, slow uint64) {
		now = now.Add(time.Second)
		h := telemetry.HistogramSnapshot{
			Bounds: []float64{0.01, 0.1},
			Counts: []uint64{fast, slow, 0},
			Count:  fast + slow,
		}
		db.Record(now.UnixNano(), []telemetry.Sample{
			{Name: "lat", Type: telemetry.TypeHistogram, Value: float64(h.Count), Hist: &h},
		})
	}
	rec(100, 0)
	if got := ev.Evaluate(now); got.State != StateOK {
		t.Fatalf("fast traffic: %s, want ok", got.State)
	}
	rec(100, 100) // 100 new slow observations: 100% of the window's delta
	got := ev.Evaluate(now)
	if got.State != StateDegraded {
		t.Fatalf("slow burst: %s, want degraded (%+v)", got.State, got.Objectives[0])
	}
	// Idle windows burn nothing: recovery without traffic.
	rec(200, 100)
	ev.Evaluate(now)
	rec(200, 100)
	rec(200, 100)
	if got := ev.Evaluate(now); got.State != StateOK {
		t.Fatalf("idle recovery: %s, want ok (%+v)", got.State, got.Objectives[0])
	}
}

func TestSaturationObjective(t *testing.T) {
	db := tsdb.NewDB(8, 32)
	ev := New(db, []Objective{{
		Name:        "queue",
		Kind:        Saturation,
		Target:      0.5, // at most half the readings may be saturated
		GaugePrefix: "depth",
		Max:         8,
	}}, Config{FastWindow: 3 * time.Second, SlowWindow: 3 * time.Second, Hysteresis: 1})
	now := time.Unix(1000, 0)
	rec := func(v float64) {
		now = now.Add(time.Second)
		db.Record(now.UnixNano(), []telemetry.Sample{{Name: "depth", Type: telemetry.TypeGauge, Value: v}})
	}
	rec(1)
	rec(2)
	if got := ev.Evaluate(now); got.State != StateOK {
		t.Fatalf("shallow queue: %s, want ok", got.State)
	}
	rec(9)
	rec(10)
	rec(12)
	if got := ev.Evaluate(now); got.State == StateOK {
		t.Fatalf("saturated queue still ok: %+v", got.Objectives[0])
	}
}

func TestEvaluatorNilAndEmpty(t *testing.T) {
	var ev *Evaluator
	if got := ev.Evaluate(time.Unix(5, 0)); got.State != StateOK {
		t.Fatalf("nil evaluator state = %s", got.State)
	}
	if got := ev.Health(); got.State != StateOK {
		t.Fatalf("nil evaluator health = %s", got.State)
	}
	// No objectives: trivially ok, and Health returns the last evaluation.
	live := New(tsdb.NewDB(2, 2), nil, Config{})
	if got := live.Health(); got.State != StateOK {
		t.Fatalf("pre-evaluation health = %s", got.State)
	}
	live.Evaluate(time.Unix(5, 0))
	if got := live.Health(); got.Evaluations != 1 {
		t.Fatalf("health evaluations = %d, want 1", got.Evaluations)
	}
}
