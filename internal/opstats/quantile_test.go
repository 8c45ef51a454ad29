package opstats_test

import (
	"math"
	"testing"

	"repro/internal/telemetry"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolation(t *testing.T) {
	// 100 samples uniform in [0,1): bucket layout {0.25, 0.5, 1.0} with 25,
	// 25, 50 samples. The q-quantile should interpolate linearly inside the
	// covering bucket.
	s := telemetry.HistogramSnapshot{
		Bounds: []float64{0.25, 0.5, 1.0},
		Counts: []uint64{25, 25, 50, 0},
		Count:  100,
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.25, 0.25}, // exactly the first bucket's upper bound
		{0.5, 0.5},   // exactly the second bucket's upper bound
		{0.125, 0.125},
		{0.75, 0.75},
		{0.99, 0.99},
		{1.0, 1.0},
	} {
		if got := s.Quantile(tc.q); !almost(got, tc.want) {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestQuantileInfClampsToHighestFiniteBound(t *testing.T) {
	s := telemetry.HistogramSnapshot{
		Bounds: []float64{0.001, 0.01},
		Counts: []uint64{1, 0, 9}, // 9 of 10 samples overflowed
		Count:  10,
	}
	if got := s.Quantile(0.99); got != 0.01 {
		t.Fatalf("Quantile(0.99) with +Inf mass = %g, want clamp to 0.01", got)
	}
	if got := s.Quantile(0.05); !almost(got, 0.0005) {
		t.Fatalf("Quantile(0.05) = %g, want 0.0005 (interpolated in first bucket)", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty telemetry.HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty snapshot Quantile = %g, want 0", got)
	}
	s := telemetry.HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{0, 4, 0}, Count: 4}
	// Out-of-range q clamps.
	if got := s.Quantile(-1); !almost(got, 1) {
		t.Fatalf("Quantile(-1) = %g, want 1 (rank 0 lands at second bucket's lower bound)", got)
	}
	if got := s.Quantile(2); !almost(got, 2) {
		t.Fatalf("Quantile(2) = %g, want 2", got)
	}
	// Skips empty buckets: all mass in the second bucket.
	if got := s.Quantile(0.5); !almost(got, 1.5) {
		t.Fatalf("Quantile(0.5) = %g, want 1.5", got)
	}
}

func TestQuantileAgainstLiveHistogram(t *testing.T) {
	h := telemetry.NewHistogram(0.001, 0.005, 0.01, 0.05, 0.1)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) * 0.0001) // uniform in [0, 0.1)
	}
	s := h.Snapshot()
	p99 := s.Quantile(0.99)
	// True p99 of the sample set is 0.099; bucket resolution is 0.05..0.1.
	if p99 < 0.05 || p99 > 0.1 {
		t.Fatalf("p99 = %g, want within covering bucket [0.05, 0.1]", p99)
	}
	if math.Abs(p99-0.099) > 0.005 {
		t.Fatalf("p99 = %g, want ~0.099 by interpolation", p99)
	}
}

func TestFractionLE(t *testing.T) {
	s := telemetry.HistogramSnapshot{
		Bounds: []float64{0.25, 0.5, 1.0},
		Counts: []uint64{25, 25, 50, 0},
		Count:  100,
	}
	for _, tc := range []struct{ x, want float64 }{
		{0.25, 0.25},
		{0.5, 0.5},
		{1.0, 1.0},
		{0.75, 0.75},
		{0.125, 0.125},
		{0, 0},
	} {
		if got := s.FractionLE(tc.x); !almost(got, tc.want) {
			t.Errorf("FractionLE(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
	var empty telemetry.HistogramSnapshot
	if got := empty.FractionLE(1); got != 1 {
		t.Fatalf("empty FractionLE = %g, want 1", got)
	}
	overflow := telemetry.HistogramSnapshot{Bounds: []float64{1}, Counts: []uint64{1, 3}, Count: 4}
	if got := overflow.FractionLE(1); !almost(got, 0.25) {
		t.Fatalf("FractionLE at last bound = %g, want 0.25 (overflow mass excluded)", got)
	}
}

func TestSnapshotSub(t *testing.T) {
	h := telemetry.NewHistogram(1, 2)
	h.Observe(0.5)
	h.Observe(1.5)
	before := h.Snapshot()
	h.Observe(1.5)
	h.Observe(5)
	after := h.Snapshot()
	d := after.Sub(before)
	if d.Count != 2 || !almost(d.Sum, 6.5) {
		t.Fatalf("delta count/sum = %d/%g, want 2/6.5", d.Count, d.Sum)
	}
	want := []uint64{0, 1, 1}
	for i, c := range d.Counts {
		if c != want[i] {
			t.Fatalf("delta counts = %v, want %v", d.Counts, want)
		}
	}
	// Mismatched layouts degrade to the cumulative reading.
	other := telemetry.HistogramSnapshot{Bounds: []float64{3}, Counts: []uint64{1, 0}, Count: 1}
	if got := after.Sub(other); got.Count != after.Count {
		t.Fatalf("layout-mismatched Sub returned %v, want s unchanged", got)
	}
}

func TestCounterVecEach(t *testing.T) {
	v := telemetry.NewCounterVec()
	v.With(`path="/b"`).Add(2)
	v.With(`path="/a"`).Inc()
	var gotLabels []string
	var gotVals []uint64
	v.Each(func(l string, n uint64) {
		gotLabels = append(gotLabels, l)
		gotVals = append(gotVals, n)
	})
	if len(gotLabels) != 2 || gotLabels[0] != `path="/a"` || gotLabels[1] != `path="/b"` {
		t.Fatalf("labels = %v, want sorted [/a /b]", gotLabels)
	}
	if gotVals[0] != 1 || gotVals[1] != 2 {
		t.Fatalf("values = %v, want [1 2]", gotVals)
	}
}
