// Package serve puts the Brainy advisor behind a long-lived HTTP service:
// a trained model registry is loaded once and queried concurrently over
// POST /v1/advise, with liveness on GET /healthz and text-exposition
// metrics on GET /metrics. The paper's usage model ends at a one-shot CLI;
// this package is the production shape of the same pipeline.
//
// Internally the server is a fleet of shards: every hot structure — the
// inference LRU, the instance timelines, the drift state machines — is
// split N ways by key hash, each slice owned by one advisorShard, so the
// advise and ingest hot paths never contend on a process-wide lock. Cache
// misses queue on their shard's batcher and are evaluated together in one
// ANN matrix pass, bit-identical to one-at-a-time evaluation. Requests get
// per-request deadlines; shutdown drains in-flight requests and flushes
// every shard's batch queue before returning.
package serve

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/serve/flight"
	"repro/internal/serve/shard"
	"repro/internal/telemetry"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/tsdb"
	"repro/internal/training"
)

// Config tunes one server instance. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8377").
	Addr string
	// DefaultArch answers requests that omit ?arch= (default "Core2").
	DefaultArch string
	// MaxBodyBytes caps the advise request body; larger bodies get 413
	// (default 32 MiB).
	MaxBodyBytes int64
	// MaxProfiles caps the number of records in one advise request;
	// larger traces get 400 (default 10000).
	MaxProfiles int
	// RequestTimeout bounds one advise request end to end; on expiry the
	// client gets 408 (default 30s).
	RequestTimeout time.Duration
	// Shards is how many ways the hot state (inference cache, timelines,
	// drift detectors, batch queues) is split. Each shard is owned by one
	// goroutine-backed batcher, so shards never contend with each other.
	// Default: GOMAXPROCS.
	Shards int
	// BatchSize caps how many queued inferences one shard coalesces into a
	// single ANN matrix pass (default 32).
	BatchSize int
	// BatchLinger is how long a lone queued inference waits for batch-mates
	// before flushing anyway; the latency cost of coalescing (default
	// 500µs, negative flushes immediately).
	BatchLinger time.Duration
	// NoRequestLog disables the per-request structured log line. The
	// lifecycle and drift logs remain. Under load-test rates the log
	// serializes every request on the slog handler's mutex, which is
	// exactly the kind of process-wide choke point sharding removes.
	NoRequestLog bool
	// CacheSize bounds the inference LRU in entries; 0 uses the default
	// (4096), negative disables caching.
	CacheSize int
	// ShutdownGrace is how long Serve waits for in-flight requests to
	// drain after its context is cancelled (default 10s).
	ShutdownGrace time.Duration
	// Logger receives structured request and lifecycle logs
	// (default slog.Default()).
	Logger *slog.Logger
	// Tracer, when enabled, records a span per request and a child span
	// per advise analysis, both tagged with the request's correlation ID.
	// Nil disables tracing at zero cost.
	Tracer *telemetry.Tracer
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints are opt-in on production listeners.
	EnablePprof bool
	// MaxInstances bounds how many instance timelines /v1/profiles retains;
	// the least recently touched timeline is evicted at the bound
	// (default 256).
	MaxInstances int
	// TimelineWindows bounds the recent-window ring kept per instance
	// (default 32).
	TimelineWindows int
	// DriftRules switches drift evaluation to the deterministic
	// drift.Rules advisor instead of the loaded models — the right setting
	// for smoke environments without a trained model set.
	DriftRules bool
	// DriftWindow and DriftHysteresis tune the drift detector's sliding
	// blend and confirmation streak; zero uses the drift package defaults.
	DriftWindow     int
	DriftHysteresis int
	// FlightSize bounds the decision flight recorder: each shard journals
	// its most recent advise decisions into a ring of this many records,
	// served on /debug/decisions. 0 uses the default (256 per shard),
	// negative disables recording entirely (the advise path then skips
	// journaling at the cost of a nil check).
	FlightSize int
	// SampleInterval paces the self-observation sampler, which scrapes
	// the metric registry into the in-process time-series store backing
	// /v1/timeseries and the /v1/health SLO verdicts. 0 uses the default
	// (1s); negative disables self-observation entirely (/v1/health then
	// reports liveness only and /v1/timeseries is empty).
	SampleInterval time.Duration
	// SamplePoints bounds each retained series' point ring (default 360 —
	// six minutes of history at the default interval).
	SamplePoints int
	// AdviseP99Max is the latency SLO threshold: /v1/advise responses
	// slower than this burn the advise-p99 error budget (default 250ms).
	AdviseP99Max time.Duration
	// SLOFastWindow and SLOSlowWindow are the burn-rate windows (defaults
	// 1m/5m); SLODegradedBurn and SLOCriticalBurn the thresholds (1/10);
	// SLOHysteresis the confirmation streak before a health verdict flips
	// (2). The small values exist for CI, which compresses the whole
	// degrade-and-recover cycle into seconds.
	SLOFastWindow   time.Duration
	SLOSlowWindow   time.Duration
	SLODegradedBurn float64
	SLOCriticalBurn float64
	SLOHysteresis   int
	// Traces, when set, is the tail-sampling trace buffer /debug/traces
	// serves. The caller composes it into Tracer's exporter (typically via
	// telemetry.Fanout) — the server only reads it.
	Traces *telemetry.TraceBuffer
	// DrainDelay is how long Serve keeps accepting (and failing readiness
	// on /v1/health) after its context is cancelled before closing the
	// listener — the window load balancers get to observe `draining` and
	// stop routing here (default 0: drain immediately).
	DrainDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8377"
	}
	if c.DefaultArch == "" {
		c.DefaultArch = "Core2"
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxProfiles == 0 {
		c.MaxProfiles = 10000
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.BatchLinger == 0 {
		c.BatchLinger = 500 * time.Microsecond
	}
	if c.BatchLinger < 0 {
		c.BatchLinger = 0
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.ShutdownGrace == 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.MaxInstances <= 0 {
		c.MaxInstances = 256
	}
	if c.TimelineWindows <= 0 {
		c.TimelineWindows = 32
	}
	if c.FlightSize == 0 {
		c.FlightSize = 256
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = time.Second
	}
	if c.SamplePoints <= 0 {
		c.SamplePoints = 360
	}
	if c.AdviseP99Max <= 0 {
		c.AdviseP99Max = 250 * time.Millisecond
	}
	if c.SLOFastWindow <= 0 {
		c.SLOFastWindow = time.Minute
	}
	if c.SLOSlowWindow <= 0 {
		c.SLOSlowWindow = 5 * time.Minute
	}
	if c.SLODegradedBurn <= 0 {
		c.SLODegradedBurn = 1
	}
	if c.SLOCriticalBurn <= 0 {
		c.SLOCriticalBurn = 10
	}
	if c.SLOHysteresis <= 0 {
		c.SLOHysteresis = 2
	}
	return c
}

// Server is one advisor instance: a model registry, the shard fleet that
// owns all hot state, and the metrics describing them.
type Server struct {
	cfg     Config
	brainy  *core.Brainy
	metrics *Metrics
	log     *slog.Logger
	tracer  *telemetry.Tracer

	// shards owns everything a request touches per key: the inference
	// cache, the instance timelines, the drift state machines, and the
	// batch queue. A request key hashes to exactly one shard, so requests
	// for different keys never share a lock.
	shards []*advisorShard

	// touchSeq is a process-wide recency stamp: each /v1/profiles ingest
	// bumps it and stamps its timeline, so the dashboard can merge the
	// per-shard timeline lists into one global most-recently-active order.
	// An atomic counter is the only state shards share on the hot path.
	touchSeq atomic.Uint64

	// decSeq orders flight-recorder records across every shard's ring, so
	// merged /debug/decisions snapshots sort into one journal; batchSeq
	// names each shard batch evaluation so records from one ANN matrix
	// pass can be grouped after the fact.
	decSeq   atomic.Uint64
	batchSeq atomic.Uint64

	// start and fingerprint identify this process on /metrics
	// (brainy_build_info, brainy_uptime_seconds) and in every journaled
	// decision: a record is only interpretable against the model registry
	// that produced it.
	start       time.Time
	fingerprint string

	// sampler scrapes the metric registry into tsdb on a fixed cadence;
	// evaluator turns those windows into the /v1/health SLO verdict after
	// each scrape. Both are nil when self-observation is disabled.
	sampler   *tsdb.Sampler
	evaluator *slo.Evaluator

	// draining flips when Serve begins shutdown: /v1/health reports
	// `draining` (non-200, so load balancers stop routing here) while
	// /healthz keeps answering 200 — the process is still alive and
	// finishing accepted work. Readiness and liveness are different
	// questions and get different answers.
	draining atomic.Bool

	// stopSampler cancels the sampler goroutine; Close calls it.
	stopSampler context.CancelFunc

	closeOnce sync.Once

	// routes holds the precomputed request-counter cache for every path the
	// mux actually serves; anything else lands in otherRoute, keeping
	// brainy_requests_total cardinality bounded no matter what clients probe.
	routes     map[string]*routeCounters
	otherRoute *routeCounters
}

// New builds a server around a trained model registry. The returned server
// owns background batching goroutines (one per shard); Serve stops them on
// drain, and embedders that never call Serve should call Close.
func New(models *training.ModelSet, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Server{
		cfg:         cfg,
		brainy:      core.New(models),
		metrics:     m,
		log:         cfg.Logger,
		tracer:      cfg.Tracer,
		start:       time.Now(),
		fingerprint: models.Fingerprint(),
		routes:      make(map[string]*routeCounters),
		otherRoute:  newRouteCounters(otherPath, m.Requests),
	}
	// Every suggestion carries its class distribution so the flight
	// recorder can journal decision provenance; responses strip it unless
	// the client asked (?explain=1), keeping the wire format unchanged.
	s.brainy.SetExplain(true)
	m.registerIdentity(s.fingerprint, s.start)
	// Per-shard bounds divide the configured totals, rounding up so the
	// fleet never retains less than a single-shard server would. A negative
	// CacheSize still disables caching on every shard.
	perCache := cfg.CacheSize
	if perCache > 0 {
		perCache = ceilDiv(perCache, cfg.Shards)
	}
	perInstances := ceilDiv(cfg.MaxInstances, cfg.Shards)
	if perInstances < 1 {
		perInstances = 1
	}
	s.shards = make([]*advisorShard, cfg.Shards)
	for i := range s.shards {
		sh := &advisorShard{
			srv:       s,
			id:        i,
			cache:     newLRUCache(perCache),
			timelines: newTimelineStore(perInstances, cfg.TimelineWindows),
			rollup:    newRollupState(),
		}
		if cfg.FlightSize > 0 {
			sh.flight = flight.NewRing(cfg.FlightSize, &s.decSeq)
		}
		suggest := sh.cachingSuggester()
		if cfg.DriftRules {
			suggest = drift.Rules
		}
		sh.drifts = drift.New(suggest, drift.Config{
			Window:     cfg.DriftWindow,
			Hysteresis: cfg.DriftHysteresis,
			Events:     m.DriftEvents,
		})
		sh.batcher = shard.NewBatcher[*inferSlot](shard.BatcherConfig{
			MaxBatch: cfg.BatchSize,
			Linger:   cfg.BatchLinger,
			Queue:    4 * cfg.BatchSize,
			OnQueue:  func(d int) { m.ShardQueueDepth.Add(float64(d)) },
			OnFlush:  func(n int) { m.BatchSize.Observe(float64(n)) },
		}, sh.runBatch)
		s.shards[i] = sh
	}
	m.Shards.Set(float64(cfg.Shards))
	for _, path := range []string{"/v1/advise", "/v1/profiles", "/v1/rollup", "/v1/health", "/v1/timeseries", "/healthz", "/metrics", debugBrainyPath, decisionsPath, tracesPath} {
		s.routes[path] = newRouteCounters(path, m.Requests)
	}
	if cfg.EnablePprof {
		s.routes[pprofPrefix] = newRouteCounters(pprofPrefix, m.Requests)
	}
	// Self-observation: a sampler goroutine scrapes the registry into the
	// time-series store, and each scrape immediately re-evaluates the SLO
	// set so /v1/health is never staler than one sample interval.
	if cfg.SampleInterval > 0 {
		s.sampler = tsdb.New(m.Registry(), tsdb.Config{
			Interval:  cfg.SampleInterval,
			MaxPoints: cfg.SamplePoints,
			OnSample:  func(now time.Time) { s.evaluator.Evaluate(now) },
		})
		s.evaluator = slo.New(s.sampler.DB(), s.defaultObjectives(), slo.Config{
			FastWindow:   cfg.SLOFastWindow,
			SlowWindow:   cfg.SLOSlowWindow,
			DegradedBurn: cfg.SLODegradedBurn,
			CriticalBurn: cfg.SLOCriticalBurn,
			Hysteresis:   cfg.SLOHysteresis,
		})
		ctx, cancel := context.WithCancel(context.Background())
		s.stopSampler = cancel
		go s.sampler.Run(ctx)
	}
	return s
}

// Close stops every shard's batching goroutine after running whatever their
// queues already accepted. Serve calls it on exit; it is idempotent and
// only needed directly by embedders that use Handler without Serve.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.stopSampler != nil {
			s.stopSampler()
		}
		for _, sh := range s.shards {
			sh.batcher.Close()
		}
	})
}

// Metrics exposes the server's metric set (shared with the /metrics page),
// mainly for tests and embedding.
func (s *Server) Metrics() *Metrics { return s.metrics }

// pprofPrefix is where the opt-in profiling endpoints mount; every page
// under it shares one request-counter label.
const pprofPrefix = "/debug/pprof/"

// Handler returns the full route table wrapped in the observability
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/advise", s.handleAdvise)
	mux.HandleFunc("/v1/profiles", s.handleProfiles)
	mux.HandleFunc("/v1/rollup", s.handleRollup)
	mux.HandleFunc(debugBrainyPath, s.handleDebugBrainy)
	mux.HandleFunc(decisionsPath, s.handleDecisions)
	mux.HandleFunc(tracesPath, s.handleTraces)
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/v1/timeseries", s.handleTimeseries)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.metrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc(pprofPrefix, pprof.Index)
		mux.HandleFunc(pprofPrefix+"cmdline", pprof.Cmdline)
		mux.HandleFunc(pprofPrefix+"profile", pprof.Profile)
		mux.HandleFunc(pprofPrefix+"symbol", pprof.Symbol)
		mux.HandleFunc(pprofPrefix+"trace", pprof.Trace)
	}
	return s.observe(mux)
}

// Serve accepts connections on ln until ctx is cancelled, then drains: the
// shard batchers flip to flush-immediately mode (queued inferences run
// without lingering for batch-mates), in-flight requests get up to
// ShutdownGrace to finish, and the batching goroutines stop only after
// running everything their queues accepted — an accepted request never
// loses its inference to shutdown. It returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(s.log.Handler(), slog.LevelWarn),
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
		// Fail readiness first: /v1/health starts answering `draining`
		// (503) while /healthz stays 200, so orchestrators stop routing
		// new traffic without killing a process that is still finishing
		// accepted work. DrainDelay is the observation window before the
		// listener actually closes.
		s.draining.Store(true)
		if s.cfg.DrainDelay > 0 {
			time.Sleep(s.cfg.DrainDelay)
		}
		s.log.Info("shutting down", "grace", s.cfg.ShutdownGrace.String())
		for _, sh := range s.shards {
			sh.batcher.Drain()
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		err := hs.Shutdown(drainCtx)
		<-errc // Serve has returned http.ErrServerClosed
		s.Close()
		if err != nil {
			s.log.Warn("shutdown incomplete", "error", err)
			return err
		}
		s.log.Info("drained")
		return nil
	}
}

// ListenAndServe binds cfg.Addr and runs Serve.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.log.Info("listening", "addr", ln.Addr().String(), "models", s.brainy.Models().Len())
	return s.Serve(ctx, ln)
}

// handleHealthz reports liveness and registry size.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"models": s.brainy.Models().Len(),
	})
}
