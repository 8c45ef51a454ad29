package serve

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/tsdb"
)

// defaultObjectives is the SLO set every server self-evaluates. Each entry
// reads series the sampler already retains; nothing here adds hot-path cost.
func (s *Server) defaultObjectives() []slo.Objective {
	// The shard batchers bound their queues at 4× the batch size each;
	// readings at 80% of the fleet-wide capacity count as saturated.
	queueCap := float64(s.cfg.Shards * 4 * s.cfg.BatchSize)
	return []slo.Objective{
		{
			// Advise requests answered without a server error. 5xx alone is
			// "bad": 4xx means the client sent garbage, which is the client's
			// error budget, not ours.
			Name:        "advise-availability",
			Kind:        slo.Availability,
			Target:      0.999,
			TotalPrefix: `brainy_requests_total{path="/v1/advise"`,
			BadPrefix:   `brainy_requests_total{path="/v1/advise"`,
			BadContains: `code="5`,
		},
		{
			// Advise latency against the configured p99 threshold, read from
			// the advise-only histogram so health probes and metric scrapes
			// cannot mask a regression on the advisory path.
			Name:      "advise-p99",
			Kind:      slo.Latency,
			Target:    0.99,
			Series:    "brainy_advise_duration_seconds",
			Threshold: s.cfg.AdviseP99Max.Seconds(),
		},
		{
			// Queue-depth readings at 80%+ of fleet capacity mean misses
			// arrive faster than the shards' matrix passes run them: a
			// backlog, not batching.
			Name:        "batch-queue-saturation",
			Kind:        slo.Saturation,
			Target:      0.9,
			GaugePrefix: "brainy_shard_queue_depth",
			Max:         0.8 * queueCap,
		},
		{
			// Windows the drift suggester could not evaluate are advisory
			// coverage silently lost; more than 10% of ingest skipping is a
			// deployment problem (missing models), not noise.
			Name:        "drift-skipped-ratio",
			Kind:        slo.Availability,
			Target:      0.9,
			TotalPrefix: "brainy_profile_windows_total",
			BadPrefix:   "brainy_drift_skipped_windows_total",
		},
	}
}

// HealthResponse is the GET /v1/health readiness document. Unlike /healthz
// (pure liveness: "the process can answer"), this is the load-balancer
// signal: SLO burn-rate verdicts, and `draining` once shutdown has begun
// while the process is still finishing accepted work.
type HealthResponse struct {
	Status   string     `json:"status"` // ok | degraded | critical | draining
	Draining bool       `json:"draining"`
	Enabled  bool       `json:"enabled"` // self-observation sampler running
	Models   int        `json:"models"`
	SLO      slo.Health `json:"slo"`
}

// handleHealth serves readiness. 200 for ok and degraded (degraded is a page,
// not a reason to shed traffic), 503 for critical and while draining.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	h := s.evaluator.Health() // nil-safe: disabled reports empty ok
	resp := HealthResponse{
		Status:  string(h.State),
		Enabled: s.sampler != nil,
		Models:  s.brainy.Models().Len(),
		SLO:     h,
	}
	code := http.StatusOK
	if h.State == slo.StateCritical {
		code = http.StatusServiceUnavailable
	}
	if s.draining.Load() {
		resp.Status = "draining"
		resp.Draining = true
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// TimeseriesResponse is the GET /v1/timeseries document: the catalog when no
// series was requested, the selected points otherwise.
type TimeseriesResponse struct {
	Enabled         bool                    `json:"enabled"`
	IntervalSeconds float64                 `json:"interval_seconds,omitempty"`
	Series          []tsdb.SeriesInfo       `json:"series,omitempty"`
	Points          map[string][]tsdb.Point `json:"points,omitempty"`
	DroppedSeries   uint64                  `json:"dropped_series,omitempty"`
}

// parseSince resolves the ?since= parameter to a unix-nanos lower bound:
// empty means everything retained, a Go duration ("30s") means a lookback
// from now, otherwise RFC3339 or integer unix seconds.
func parseSince(raw string, now time.Time) (int64, bool) {
	if raw == "" {
		return 0, true
	}
	if d, err := time.ParseDuration(raw); err == nil && d >= 0 {
		return now.Add(-d).UnixNano(), true
	}
	if t, err := time.Parse(time.RFC3339, raw); err == nil {
		return t.UnixNano(), true
	}
	if sec, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return sec * int64(time.Second), true
	}
	return 0, false
}

// handleTimeseries serves the sampler's retained history. Without ?series= it
// returns the catalog; with ?series=a,b it returns each requested series'
// points, including derived names (`name:rate`, `name:p50|p90|p99`).
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	resp := TimeseriesResponse{Enabled: s.sampler != nil}
	if s.sampler == nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	db := s.sampler.DB()
	resp.IntervalSeconds = s.sampler.Interval().Seconds()
	_, _, resp.DroppedSeries = db.Stats()
	since, ok := parseSince(r.URL.Query().Get("since"), time.Now())
	if !ok {
		http.Error(w, "bad since: want duration, RFC3339, or unix seconds", http.StatusBadRequest)
		return
	}
	sels := r.URL.Query()["series"]
	if len(sels) == 0 {
		resp.Series = db.List()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Points = make(map[string][]tsdb.Point)
	for _, sel := range sels {
		for _, name := range splitSeriesList(sel) {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			resp.Points[name] = db.Query(name, since)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// splitSeriesList splits a comma-separated series list, ignoring commas
// inside label braces: `m{a="x",b="y"},m2` is two names, not three.
func splitSeriesList(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
		case '}':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}
