// Package tsdb is a tiny in-process time-series store: bounded per-series
// rings of (unix_nanos, value) points scraped from a telemetry.Registry by a
// Sampler. It gives the advisor the time dimension its own thesis demands —
// /metrics is a cumulative snapshot, but verdicts about the serving system
// (SLO burn rates, p99 trends, drift of the advisor itself) need windows.
//
// Counters are stored raw and differentiated on read; histograms retain
// their full bucket snapshots so any window's p50/p90/p99 comes from
// cumulative-bucket interpolation over a snapshot delta, the same
// telemetry.HistogramSnapshot.Quantile every other consumer uses. Series and
// point counts are hard-capped: the store is a crash-cart of recent history,
// not a database.
package tsdb

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/ring"
	"repro/internal/telemetry"
)

// Point is one scalar reading.
type Point struct {
	T int64   `json:"t"` // unix nanos
	V float64 `json:"v"`
}

// SeriesInfo describes one retained series for catalog listings.
type SeriesInfo struct {
	Name   string               `json:"name"`
	Type   telemetry.MetricType `json:"type"`
	Points int                  `json:"points"`
}

// series is one bounded ring of readings.
type series struct {
	typ telemetry.MetricType
	pts ring.Ring[reading]
}

// reading is one scrape of a series. A histogram reading keeps its bucket
// snapshot, and its V is the cumulative sample count Point queries return.
type reading struct {
	Point
	hist *telemetry.HistogramSnapshot // nil unless the series is a histogram
}

// DB holds the retained series. All methods are safe for concurrent use and
// on a nil *DB (queries return nothing), so a disabled store is a nil
// pointer.
type DB struct {
	maxSeries int
	maxPoints int

	mu            sync.Mutex
	series        map[string]*series
	droppedSeries uint64
}

// NewDB builds a store bounded at maxSeries rings of maxPoints points each.
func NewDB(maxSeries, maxPoints int) *DB {
	if maxSeries < 1 {
		maxSeries = 1
	}
	if maxPoints < 2 {
		maxPoints = 2 // rates and deltas need two points
	}
	return &DB{
		maxSeries: maxSeries,
		maxPoints: maxPoints,
		series:    make(map[string]*series),
	}
}

// Record appends one scrape's samples at time t (unix nanos), keeping each
// histogram sample's snapshot, which the caller must not change afterwards.
// Samples for series beyond the hard cap are dropped and counted, never
// partially admitted: a series either exists with full history or not at
// all.
func (db *DB) Record(t int64, samples []telemetry.Sample) {
	if db == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := range samples {
		sm := &samples[i]
		sr, ok := db.series[sm.Name]
		if !ok {
			if len(db.series) >= db.maxSeries {
				db.droppedSeries++
				continue
			}
			sr = &series{typ: sm.Type, pts: ring.New[reading](db.maxPoints)}
			db.series[sm.Name] = sr
		}
		sr.pts.Push(reading{Point{T: t, V: sm.Value}, sm.Hist})
	}
}

// Stats reports the store occupancy: series count, total retained points,
// and series dropped by the cap.
func (db *DB) Stats() (nseries, npoints int, dropped uint64) {
	if db == nil {
		return 0, 0, 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range db.series {
		npoints += s.pts.Len()
	}
	return len(db.series), npoints, db.droppedSeries
}

// List returns the catalog of retained series, name-sorted.
func (db *DB) List() []SeriesInfo {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	out := make([]SeriesInfo, 0, len(db.series))
	for name, s := range db.series {
		out = append(out, SeriesInfo{Name: name, Type: s.typ, Points: s.pts.Len()})
	}
	db.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// quantileSuffixes maps derived-series suffixes to quantiles.
var quantileSuffixes = map[string]float64{"p50": 0.50, "p90": 0.90, "p99": 0.99}

// Query returns the points of one series at or after `from` (unix nanos),
// oldest first. Beyond raw series names it serves derived series:
//
//	name:rate           per-second increase of a counter between scrapes
//	name:p50|:p90|:p99  windowed quantile of a histogram, interpolated from
//	                    the bucket delta between consecutive snapshots
//	                    (scrape intervals with no observations are skipped)
//
// Raw histogram names yield their cumulative sample count. Unknown names
// return nil.
func (db *DB) Query(name string, from int64) []Point {
	if db == nil {
		return nil
	}
	// A suffix follows the labels, so a colon inside a label value (an
	// address's port) is part of the series name.
	base, derive := name, ""
	if i := strings.LastIndexByte(name, ':'); i > strings.LastIndexByte(name, '}') {
		base, derive = name[:i], name[i+1:]
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.series[base]
	if !ok {
		return nil
	}
	n := s.pts.Len()
	switch {
	case derive == "":
		var out []Point
		for i := range n {
			if p := s.pts.At(i).Point; p.T >= from {
				out = append(out, p)
			}
		}
		return out
	case derive == "rate" && s.typ == telemetry.TypeCounter:
		var out []Point
		for k := 1; k < n; k++ {
			prev, cur := s.pts.At(k-1), s.pts.At(k)
			if cur.T < from {
				continue
			}
			dt := float64(cur.T-prev.T) / 1e9
			if dt <= 0 {
				continue
			}
			dv := cur.V - prev.V
			if dv < 0 {
				dv = 0 // counter reset
			}
			out = append(out, Point{T: cur.T, V: dv / dt})
		}
		return out
	default:
		q, ok := quantileSuffixes[derive]
		if !ok || s.typ != telemetry.TypeHistogram {
			return nil
		}
		var out []Point
		for k := 1; k < n; k++ {
			prev, cur := s.pts.At(k-1), s.pts.At(k)
			if cur.T < from {
				continue
			}
			d := cur.hist.Sub(*prev.hist)
			if d.Count == 0 {
				continue
			}
			out = append(out, Point{T: cur.T, V: d.Quantile(q)})
		}
		return out
	}
}

// baseline returns the position (oldest first) of the reading to
// difference against for a window ending now and starting at `start`: the
// latest point at or before start, else — when history was evicted — the
// oldest retained point, else -1 meaning "the series is younger than the
// window; counters started from zero".
func (s *series) baseline(start int64) int {
	best := -1
	for i := range s.pts.Len() {
		if s.pts.At(i).T > start {
			break
		}
		best = i
	}
	if best < 0 && s.pts.Total() > uint64(s.pts.Len()) {
		return 0
	}
	return best
}

// CounterDelta sums, over every counter series whose name matches prefix
// (and, when non-empty, contains `contains`), the increase across the
// window [now-window, now]. Series younger than the window contribute their
// full value: counters start at zero with the process. The bool reports
// whether any series matched with at least one point.
func (db *DB) CounterDelta(prefix, contains string, window, now int64) (float64, bool) {
	if db == nil {
		return 0, false
	}
	start := now - window
	db.mu.Lock()
	defer db.mu.Unlock()
	var sum float64
	matched := false
	for name, s := range db.series {
		if s.typ != telemetry.TypeCounter || !strings.HasPrefix(name, prefix) {
			continue
		}
		if contains != "" && !strings.Contains(name, contains) {
			continue
		}
		n := s.pts.Len()
		if n == 0 {
			continue
		}
		matched = true
		last := s.pts.At(n - 1).V
		var base float64
		if b := s.baseline(start); b >= 0 {
			base = s.pts.At(b).V
		}
		if d := last - base; d > 0 {
			sum += d
		}
	}
	return sum, matched
}

// HistogramDelta returns the bucket-resolved distribution of everything a
// histogram observed inside the window [now-window, now]. When the series
// is younger than the window the delta is the cumulative snapshot.
func (db *DB) HistogramDelta(name string, window, now int64) (telemetry.HistogramSnapshot, bool) {
	if db == nil {
		return telemetry.HistogramSnapshot{}, false
	}
	start := now - window
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.series[name]
	if !ok || s.typ != telemetry.TypeHistogram {
		return telemetry.HistogramSnapshot{}, false
	}
	n := s.pts.Len()
	if n == 0 {
		return telemetry.HistogramSnapshot{}, false
	}
	last := s.pts.At(n - 1).hist
	if b := s.baseline(start); b >= 0 {
		return last.Sub(*s.pts.At(b).hist), true
	}
	return *last, true
}

// GaugeOver counts, among a gauge series' readings inside the window
// [now-window, now], how many sit at or above threshold. Matching uses the
// same prefix/contains selector as CounterDelta so sharded gauges
// (`brainy_shard_queue_depth`-style families) aggregate across children.
func (db *DB) GaugeOver(prefix, contains string, threshold float64, window, now int64) (over, total int) {
	if db == nil {
		return 0, 0
	}
	start := now - window
	db.mu.Lock()
	defer db.mu.Unlock()
	for name, s := range db.series {
		if s.typ != telemetry.TypeGauge || !strings.HasPrefix(name, prefix) {
			continue
		}
		if contains != "" && !strings.Contains(name, contains) {
			continue
		}
		for i := range s.pts.Len() {
			p := s.pts.At(i)
			if p.T < start || p.T > now {
				continue
			}
			total++
			if p.V >= threshold {
				over++
			}
		}
	}
	return over, total
}
