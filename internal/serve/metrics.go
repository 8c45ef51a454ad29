package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/mem"
	"repro/internal/telemetry"
)

// Metrics aggregates everything brainy-serve observes about itself. Every
// metric is registered once in a telemetry.Registry with its HELP/TYPE
// metadata, and the GET /metrics page is a single sorted registry dump —
// no hand-maintained exposition code.
type Metrics struct {
	reg *telemetry.Registry
	// Requests counts finished HTTP requests by path and status code
	// (label form `path="/v1/advise",code="200"`). Unknown paths collapse
	// into path="<other>" so scanners cannot mint unbounded label sets.
	Requests *telemetry.CounterVec
	// Latency observes end-to-end request durations in seconds.
	Latency *telemetry.Histogram
	// AdviseLatency observes /v1/advise durations alone. The shared
	// request histogram mixes in health probes and metric scrapes, which
	// would let cheap endpoints mask an advise regression; the latency SLO
	// reads this series so its p99 is the advisory path's p99.
	AdviseLatency *telemetry.Histogram
	// InFlight gauges requests currently being served.
	InFlight *telemetry.Gauge
	// CacheHits / CacheMisses count inference-cache lookups.
	CacheHits   *telemetry.Counter
	CacheMisses *telemetry.Counter
	// Inferences counts ANN evaluations actually run (cache misses that
	// reached a model) by architecture (label form `arch="Core2"`).
	Inferences *telemetry.CounterVec
	// ProfilesAnalyzed counts profile records accepted into analysis.
	ProfilesAnalyzed *telemetry.Counter
	// ProfileWindows counts snapshot windows accepted on /v1/profiles.
	ProfileWindows *telemetry.Counter
	// WindowOps observes the operation span of each ingested window; the
	// exposition's _min/_max lines show the exact spread of window sizes
	// clients stream.
	WindowOps *telemetry.Histogram
	// DriftEvents counts confirmed phase-drift events across all timelines.
	DriftEvents *telemetry.Counter
	// DriftSkipped counts windows the drift suggester could not evaluate
	// (typically no model for the window's kind/arch) — advisory coverage
	// silently lost unless it is watched.
	DriftSkipped *telemetry.Counter
	// TimelineInstances gauges instance timelines currently retained.
	TimelineInstances *telemetry.Gauge
	// TimelineEvictions counts timelines dropped by the instance LRU.
	TimelineEvictions *telemetry.Counter
	// WindowsOutOfOrder counts ingested windows whose sequence number did
	// not advance their timeline (replays, reordered delivery).
	WindowsOutOfOrder *telemetry.Counter
	// Shards gauges the configured shard count — a constant per process,
	// exposed so dashboards can normalize queue depth per shard.
	Shards *telemetry.Gauge
	// ShardQueueDepth gauges inferences currently queued across all shard
	// batchers (submitted but not yet evaluated).
	ShardQueueDepth *telemetry.Gauge
	// BatchSize observes how many queued inferences each ANN matrix pass
	// coalesced; the _min/_max lines bound the batching the workload
	// actually achieved.
	BatchSize *telemetry.Histogram
}

// NewMetrics builds a metric set on a fresh registry.
func NewMetrics() *Metrics {
	reg := telemetry.NewRegistry()
	m := &Metrics{
		reg:              reg,
		Requests:         reg.CounterVec("brainy_requests_total", "Finished HTTP requests by path and status code."),
		Latency:          reg.Histogram("brainy_request_duration_seconds", "End-to-end request latency."),
		AdviseLatency:    reg.Histogram("brainy_advise_duration_seconds", "End-to-end /v1/advise latency (the advisory path alone)."),
		InFlight:         reg.Gauge("brainy_inflight_requests", "Requests currently being served."),
		CacheHits:        reg.Counter("brainy_cache_hits_total", "Inference-cache hits."),
		CacheMisses:      reg.Counter("brainy_cache_misses_total", "Inference-cache misses."),
		Inferences:       reg.CounterVec("brainy_inferences_total", "ANN evaluations run, by architecture."),
		ProfilesAnalyzed: reg.Counter("brainy_profiles_analyzed_total", "Profile records accepted into analysis."),
		ProfileWindows:   reg.Counter("brainy_profile_windows_total", "Snapshot windows accepted on /v1/profiles."),
		WindowOps: reg.Histogram("brainy_profile_window_ops", "Operations covered by each ingested snapshot window.",
			8, 16, 32, 64, 128, 256, 1024, 4096, 16384),
		DriftEvents:       reg.Counter("brainy_drift_events_total", "Confirmed phase-drift events across instance timelines."),
		DriftSkipped:      reg.Counter("brainy_drift_skipped_windows_total", "Ingested windows the drift suggester could not evaluate (advisory coverage lost)."),
		TimelineInstances: reg.Gauge("brainy_profile_instances", "Instance timelines currently retained."),
		TimelineEvictions: reg.Counter("brainy_timeline_evictions_total", "Instance timelines evicted by the LRU bound."),
		WindowsOutOfOrder: reg.Counter("brainy_profile_windows_out_of_order_total", "Ingested windows whose sequence number did not advance their timeline."),
		Shards:            reg.Gauge("brainy_shards", "Configured advisor shards (state partitions with one batching goroutine each)."),
		ShardQueueDepth:   reg.Gauge("brainy_shard_queue_depth", "Inferences queued on shard batchers, awaiting evaluation."),
		BatchSize: reg.Histogram("brainy_batch_size", "Queued inferences coalesced into each ANN matrix pass.",
			1, 2, 4, 8, 16, 32, 64, 128),
	}
	// Read at exposition time straight off the mem package's process-wide
	// gauge: every live flat-container arena (drift replays, adaptive
	// migrations, simulated candidates in flight) contributes its reserved
	// chunk bytes.
	reg.GaugeFunc("brainy_arena_bytes", "Simulated bytes currently reserved by live flat-container arenas.",
		func() float64 { return float64(mem.TotalArenaBytes()) })
	return m
}

// registerIdentity installs the process-identity metrics: a build-info
// gauge whose labels name the binary version, Go toolchain, and model
// registry fingerprint (value always 1, the Prometheus info-metric idiom),
// and an uptime gauge read off the wall clock at exposition time. Called
// once from New — identity is per-server, not per-metric-set.
func (m *Metrics) registerIdentity(fingerprint string, start time.Time) {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	labels := fmt.Sprintf("version=%q,go_version=%q,registry_fingerprint=%q",
		version, runtime.Version(), fingerprint)
	m.reg.Info("brainy_build_info", "Build and model-registry identity; the value is always 1.", labels)
	m.reg.GaugeFunc("brainy_uptime_seconds", "Seconds since the server was constructed.",
		func() float64 { return time.Since(start).Seconds() })
}

// Registry exposes the underlying registry, for embedders that want to
// register additional metrics on the same /metrics page.
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// ServeHTTP serves the registry: the exposition page, or with ?format=json
// the same samples as JSON.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.reg.ServeHTTP(w, r)
}
