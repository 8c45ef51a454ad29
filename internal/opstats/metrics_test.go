// The metric primitives live in internal/telemetry; their unit tests are
// kept here, as an external test package, under their original names.
package opstats_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// page renders a registry's sample lines, without HELP and TYPE metadata.
func page(r *telemetry.Registry) string {
	var sb, out strings.Builder
	r.Expose(&sb)
	for _, line := range strings.SplitAfter(sb.String(), "\n") {
		if !strings.HasPrefix(line, "# ") {
			out.WriteString(line)
		}
	}
	return out.String()
}

func TestCounterConcurrent(t *testing.T) {
	var c telemetry.Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	c.Add(42)
	if c.Value() != 8042 {
		t.Fatalf("counter = %d after Add", c.Value())
	}
}

func TestCounterExpose(t *testing.T) {
	r := telemetry.NewRegistry()
	r.CounterVec("reqs_by_path_total", "").With(`path="/x"`).Add(3)
	r.Counter("reqs_total", "").Add(3)
	// Whole counts print as integers, even past %g's exponent threshold.
	r.Counter("zz_total", "").Add(12345678)
	want := "reqs_by_path_total{path=\"/x\"} 3\nreqs_total 3\nzz_total 12345678\n"
	if got := page(r); got != want {
		t.Fatalf("exposition = %q, want %q", got, want)
	}
}

func TestCounterVec(t *testing.T) {
	r := telemetry.NewRegistry()
	v := r.CounterVec("infer_total", "")
	v.With(`arch="Core2"`).Inc()
	v.With(`arch="Core2"`).Inc()
	v.With(`arch="Atom"`).Inc()
	if v.Value(`arch="Core2"`) != 2 || v.Value(`arch="Atom"`) != 1 {
		t.Fatalf("values: Core2=%d Atom=%d", v.Value(`arch="Core2"`), v.Value(`arch="Atom"`))
	}
	if v.Value(`arch="P4"`) != 0 {
		t.Fatal("absent label nonzero")
	}
	if v.Total() != 3 {
		t.Fatalf("total = %d", v.Total())
	}
	want := "infer_total{arch=\"Atom\"} 1\ninfer_total{arch=\"Core2\"} 2\n"
	if got := page(r); got != want {
		t.Fatalf("exposition = %q, want %q", got, want)
	}
}

func TestCounterVecConcurrent(t *testing.T) {
	v := telemetry.NewCounterVec()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := `w="` + string(rune('a'+w%2)) + `"`
			for i := 0; i < 500; i++ {
				v.With(label).Inc()
			}
		}(w)
	}
	wg.Wait()
	if v.Total() != 4000 {
		t.Fatalf("total = %d", v.Total())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := telemetry.NewHistogram(0.01, 0.1, 1)
	for _, s := range []float64{0.005, 0.01, 0.05, 0.5, 2, 3} {
		h.Observe(s)
	}
	snap := h.Snapshot()
	// 0.005 and 0.01 (inclusive upper bound) land in le=0.01; 0.05 in
	// le=0.1; 0.5 in le=1; 2 and 3 overflow.
	wantCounts := []uint64{2, 1, 1, 2}
	for i, w := range wantCounts {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 6 {
		t.Fatalf("count = %d", snap.Count)
	}
	if snap.Sum < 5.56 || snap.Sum > 5.57 {
		t.Fatalf("sum = %f", snap.Sum)
	}
}

func TestHistogramExposeCumulative(t *testing.T) {
	r := telemetry.NewRegistry()
	h := r.Histogram("lat_seconds", "", 0.01, 0.1)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(7)
	want := strings.Join([]string{
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		`lat_seconds_sum 7.055`,
		`lat_seconds_count 3`,
		`lat_seconds_min 0.005`,
		`lat_seconds_max 7`,
	}, "\n") + "\n"
	if got := page(r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramMinMax covers the Observe-time extreme tracking: empty
// histograms expose no _min/_max lines, a single sample pins both extremes,
// and later samples only widen them.
func TestHistogramMinMax(t *testing.T) {
	r := telemetry.NewRegistry()
	h := r.Histogram("w", "", 1, 10)
	if got := page(r); strings.Contains(got, "w_min") || strings.Contains(got, "w_max") {
		t.Fatalf("empty histogram exposed extremes:\n%s", got)
	}
	h.Observe(4)
	if s := h.Snapshot(); s.Min != 4 || s.Max != 4 {
		t.Fatalf("single sample: min=%g max=%g, want 4/4", s.Min, s.Max)
	}
	h.Observe(9)
	h.Observe(0.5)
	h.Observe(2)
	if s := h.Snapshot(); s.Min != 0.5 || s.Max != 9 {
		t.Fatalf("min=%g max=%g, want 0.5/9", s.Min, s.Max)
	}
}

func TestHistogramMinMaxConcurrent(t *testing.T) {
	h := telemetry.NewHistogram(100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 500; i++ {
				h.Observe(float64(i + w))
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Min != 1 || s.Max != 507 {
		t.Fatalf("min=%g max=%g, want 1/507", s.Min, s.Max)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	h := telemetry.NewHistogram()
	h.Observe(0.0002)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	snap := h.Snapshot()
	if len(snap.Bounds) != len(telemetry.DefBuckets) || len(snap.Counts) != len(telemetry.DefBuckets)+1 {
		t.Fatalf("default shape: %d bounds, %d counts", len(snap.Bounds), len(snap.Counts))
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := telemetry.NewHistogram(1, 2, 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 5))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds accepted")
		}
	}()
	telemetry.NewHistogram(1, 1)
}
