package telemetry

// Quantile estimation and snapshot arithmetic for histograms. One
// implementation serves every consumer — the in-process time-series store
// derives windowed p99s from retained snapshots, loadgen derives server-side
// latency quantiles from /metrics deltas, and the dashboards render trends —
// so the numbers agree everywhere to within bucket resolution.

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation inside the cumulative bucket that
// holds the target rank, the same estimate Prometheus' histogram_quantile
// computes. Samples in the +Inf overflow bucket are clamped to the highest
// finite bound — the histogram cannot resolve beyond it. An empty snapshot
// returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, b := range s.Bounds {
		n := float64(s.Counts[i])
		if cum+n >= rank && n > 0 {
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(b-lower)
		}
		cum += n
	}
	// Target rank lives in the +Inf bucket: clamp to the histogram's
	// resolution limit.
	return s.Bounds[len(s.Bounds)-1]
}

// FractionLE estimates the fraction of observed samples at or below x by
// interpolating inside the bucket that contains x — the CDF counterpart of
// Quantile, used by latency objectives ("what share of requests beat the
// threshold"). An empty snapshot returns 1 (no samples, none over budget).
func (s HistogramSnapshot) FractionLE(x float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 1
	}
	var cum float64
	for i, b := range s.Bounds {
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		n := float64(s.Counts[i])
		if x < b {
			if x <= lower {
				return cum / float64(s.Count)
			}
			return (cum + n*(x-lower)/(b-lower)) / float64(s.Count)
		}
		cum += n
	}
	// x is at or beyond the last finite bound; everything in the +Inf
	// bucket counts as above it only when x is below +Inf, which it always
	// is — overflow samples are by definition > the last bound.
	return cum / float64(s.Count)
}

// Sub returns the snapshot of everything observed after prev: per-bucket
// count deltas plus sum/count deltas. Min/Max and exemplars are dropped —
// they describe lifetimes, not intervals. Snapshots with different bucket
// layouts cannot be differenced; Sub returns s unchanged so a registry
// reconfiguration degrades to a cumulative reading instead of nonsense.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Bounds) != len(s.Bounds) {
		return s
	}
	for i, b := range prev.Bounds {
		if s.Bounds[i] != b {
			return s
		}
	}
	d := HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: make([]uint64, len(s.Counts)),
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		if s.Counts[i] >= prev.Counts[i] {
			d.Counts[i] = s.Counts[i] - prev.Counts[i]
		}
	}
	if s.Count >= prev.Count {
		d.Count = s.Count - prev.Count
	}
	return d
}
