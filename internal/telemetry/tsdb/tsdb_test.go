package tsdb

import (
	"context"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock hands out strictly advancing times one second apart.
type fakeClock struct {
	t time.Time
}

func newClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) tick(d time.Duration) { c.t = c.t.Add(d) }

func TestSamplerScrapesCountersAndDerivesRates(t *testing.T) {
	reg := telemetry.NewRegistry()
	ops := reg.Counter("ops_total", "")
	clk := newClock()
	s := New(reg, Config{Now: clk.now, NoGauges: true})

	for i := 0; i < 5; i++ {
		ops.Add(10) // 10 ops per scrape interval (1s apart)
		clk.tick(time.Second)
		s.Scrape()
	}
	raw := s.DB().Query("ops_total", 0)
	if len(raw) != 5 || raw[0].V != 10 || raw[4].V != 50 {
		t.Fatalf("raw points = %+v, want 5 cumulative readings 10..50", raw)
	}
	rates := s.DB().Query("ops_total:rate", 0)
	if len(rates) != 4 {
		t.Fatalf("rate points = %+v, want 4", rates)
	}
	for _, p := range rates {
		if p.V < 9.99 || p.V > 10.01 {
			t.Fatalf("rate = %g, want ~10/s", p.V)
		}
	}
	// `from` filters: only points at or after the 4th scrape.
	if got := s.DB().Query("ops_total", raw[3].T); len(got) != 2 {
		t.Fatalf("from-filtered query = %+v, want 2 points", got)
	}
}

// TestQueryColonInLabelValue: a colon inside a label value is part of the
// series name, not a derived-series suffix, so such a series reads back raw
// and as a rate.
func TestQueryColonInLabelValue(t *testing.T) {
	reg := telemetry.NewRegistry()
	up := reg.CounterVec("up", "").With(`addr="127.0.0.1:8377"`)
	clk := newClock()
	s := New(reg, Config{Now: clk.now, NoGauges: true})
	for i := 0; i < 3; i++ {
		up.Add(5)
		clk.tick(time.Second)
		s.Scrape()
	}
	const name = `up{addr="127.0.0.1:8377"}`
	if raw := s.DB().Query(name, 0); len(raw) != 3 || raw[2].V != 15 {
		t.Fatalf("raw points = %+v, want 3 cumulative readings 5..15", raw)
	}
	rates := s.DB().Query(name+":rate", 0)
	if len(rates) != 2 || rates[0].V != 5 || rates[1].V != 5 {
		t.Fatalf("rate points = %+v, want 2 of 5/s", rates)
	}
}

func TestSamplerHistogramQuantilesFromDeltas(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat_seconds", "", 0.01, 0.1, 1)
	clk := newClock()
	s := New(reg, Config{Now: clk.now, NoGauges: true})

	clk.tick(time.Second)
	s.Scrape() // empty baseline
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // all in (0.01, 0.1]
	}
	clk.tick(time.Second)
	s.Scrape()
	clk.tick(time.Second)
	s.Scrape() // no new observations: interval skipped in derived series

	p99 := s.DB().Query("lat_seconds:p99", 0)
	if len(p99) != 1 {
		t.Fatalf("p99 points = %+v, want exactly 1 (empty intervals skipped)", p99)
	}
	if p99[0].V <= 0.01 || p99[0].V > 0.1 {
		t.Fatalf("p99 = %g, want inside covering bucket (0.01, 0.1]", p99[0].V)
	}
	// Raw histogram query reads the cumulative count.
	raw := s.DB().Query("lat_seconds", 0)
	if len(raw) != 3 || raw[2].V != 100 {
		t.Fatalf("raw histogram points = %+v, want counts 0,100,100", raw)
	}
	if got := s.DB().Query("lat_seconds:p42", 0); got != nil {
		t.Fatalf("unknown quantile suffix returned %+v", got)
	}
}

func TestDBPointRingOverwrites(t *testing.T) {
	db := NewDB(4, 3)
	for i := int64(1); i <= 5; i++ {
		db.Record(i, []telemetry.Sample{{Name: "g", Type: telemetry.TypeGauge, Value: float64(i)}})
	}
	pts := db.Query("g", 0)
	if len(pts) != 3 || pts[0].T != 3 || pts[2].T != 5 {
		t.Fatalf("ring points = %+v, want times 3..5 oldest-first", pts)
	}
}

func TestDBSeriesCap(t *testing.T) {
	db := NewDB(2, 8)
	db.Record(1, []telemetry.Sample{
		{Name: "a", Type: telemetry.TypeGauge, Value: 1},
		{Name: "b", Type: telemetry.TypeGauge, Value: 2},
		{Name: "c", Type: telemetry.TypeGauge, Value: 3},
	})
	nseries, npoints, dropped := db.Stats()
	if nseries != 2 || npoints != 2 || dropped != 1 {
		t.Fatalf("stats = %d/%d/%d, want 2 series, 2 points, 1 dropped", nseries, npoints, dropped)
	}
	if db.Query("c", 0) != nil {
		t.Fatal("capped-out series should not exist")
	}
	list := db.List()
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("list = %+v, want [a b]", list)
	}
}

func TestCounterDeltaWindows(t *testing.T) {
	db := NewDB(8, 16)
	rec := func(t int64, ok, bad float64) {
		db.Record(t*1e9, []telemetry.Sample{
			{Name: `req{code="200"}`, Type: telemetry.TypeCounter, Value: ok},
			{Name: `req{code="500"}`, Type: telemetry.TypeCounter, Value: bad},
		})
	}
	rec(1, 10, 0)
	rec(2, 20, 1)
	rec(3, 30, 3)
	now := int64(3 * 1e9)

	// Window covering the last 2s: baseline is the t=1 reading.
	if d, ok := db.CounterDelta("req", "", 2*1e9, now); !ok || d != 23 {
		t.Fatalf("total delta = %g/%v, want 23", d, ok)
	}
	if d, ok := db.CounterDelta("req", `code="500"`, 2*1e9, now); !ok || d != 3 {
		t.Fatalf("bad delta = %g/%v, want 3", d, ok)
	}
	// Window longer than the series' life: counters count from zero.
	if d, _ := db.CounterDelta("req", `code="200"`, 100*1e9, now); d != 30 {
		t.Fatalf("young-series delta = %g, want full value 30", d)
	}
	if _, ok := db.CounterDelta("absent", "", 1e9, now); ok {
		t.Fatal("absent prefix should not match")
	}
}

func TestCounterDeltaAfterEviction(t *testing.T) {
	// Ring bound 3: by t=5 the t<=2 readings are gone, so a 100s window
	// must fall back to the oldest retained reading, not zero.
	db := NewDB(2, 3)
	for i := int64(1); i <= 5; i++ {
		db.Record(i*1e9, []telemetry.Sample{{Name: "c", Type: telemetry.TypeCounter, Value: float64(10 * i)}})
	}
	d, ok := db.CounterDelta("c", "", 100*1e9, 5*1e9)
	if !ok || d != 20 { // 50 - 30 (oldest retained), not 50 - 0
		t.Fatalf("post-eviction delta = %g/%v, want 20", d, ok)
	}
}

func TestHistogramDeltaAndGaugeOver(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat", "", 0.01, 0.1)
	depth := reg.Gauge("queue_depth", "")
	clk := newClock()
	s := New(reg, Config{Now: clk.now, NoGauges: true})

	h.Observe(0.005)
	depth.Set(1)
	clk.tick(time.Second)
	s.Scrape()
	h.Observe(0.05)
	h.Observe(0.05)
	depth.Set(9)
	clk.tick(time.Second)
	s.Scrape()
	now := clk.now().UnixNano()

	d, ok := s.DB().HistogramDelta("lat", int64(time.Second), now)
	if !ok || d.Count != 2 {
		t.Fatalf("windowed delta count = %d/%v, want 2", d.Count, ok)
	}
	if f := d.FractionLE(0.01); f != 0 {
		t.Fatalf("windowed FractionLE(0.01) = %g, want 0 (only slow obs in window)", f)
	}
	full, ok := s.DB().HistogramDelta("lat", int64(time.Hour), now)
	if !ok || full.Count != 3 {
		t.Fatalf("lifetime delta count = %d/%v, want 3", full.Count, ok)
	}
	over, total := s.DB().GaugeOver("queue_depth", "", 8, int64(2*time.Second), now)
	if total != 2 || over != 1 {
		t.Fatalf("gauge over = %d/%d, want 1 of 2", over, total)
	}
}

func TestSamplerGaugesAndRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("x_total", "").Inc()
	var onSampleCalls int
	s := New(reg, Config{
		Interval: time.Millisecond,
		OnSample: func(time.Time) { onSampleCalls++ },
	})
	s.Scrape()
	if nseries, _, _ := s.DB().Stats(); nseries != 3 {
		// x_total plus the two self-describing tsdb gauges.
		t.Fatalf("series = %d, want 3 (counter + 2 tsdb gauges)", nseries)
	}
	if onSampleCalls != 1 {
		t.Fatalf("OnSample ran %d times, want 1", onSampleCalls)
	}
	if pts := s.DB().Query("brainy_tsdb_series", 0); len(pts) != 1 {
		t.Fatalf("tsdb gauge not self-sampled: %+v", pts)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, npoints, _ := s.DB().Stats(); npoints >= 9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Run produced no scrapes")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
}

// TestNilSamplerZeroAlloc pins the disabled contract: a nil sampler and nil
// DB are allocation-free no-ops on every path the serving tier calls.
func TestNilSamplerZeroAlloc(t *testing.T) {
	var s *Sampler
	var db *DB
	if allocs := testing.AllocsPerRun(200, func() {
		s.Scrape()
		s.Run(context.Background())
		if s.DB() != nil {
			t.Fatal("nil sampler DB not nil")
		}
		s.Interval()
		db.Record(1, nil)
		if db.Query("x", 0) != nil || db.List() != nil {
			t.Fatal("nil DB returned data")
		}
		db.Stats()
		db.CounterDelta("x", "", 1, 2)
		db.HistogramDelta("x", 1, 2)
		db.GaugeOver("x", "", 1, 1, 2)
	}); allocs != 0 {
		t.Fatalf("disabled sampler allocated %.1f/op, want 0", allocs)
	}
}
