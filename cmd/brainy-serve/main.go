// Command brainy-serve runs the Brainy advisor as a long-lived HTTP
// service: it loads a trained model registry once and answers advise
// requests over JSON, the service shape of Figure 3's analysis front end.
//
// Usage:
//
//	brainy-serve -models models.json -addr :8377
//
// Endpoints:
//
//	POST /v1/advise?arch=Core2    profile trace in (JSON lines or array),
//	                              prioritized replacement plan out
//	POST /v1/profiles?arch=Core2  streamed snapshot windows in; per-instance
//	                              timelines and phase-drift detection out
//	GET  /v1/rollup               fleet rollup: per-kind instance, window,
//	                              advise, drift, and migration aggregates
//	GET  /v1/health               SLO burn-rate readiness verdict: ok,
//	                              degraded, critical (503), or draining (503)
//	GET  /v1/timeseries           self-observed metric history from the
//	                              in-process store (?series=&since=)
//	GET  /debug/brainy            live status page: feature timelines,
//	                              current vs. initial advice, drift flags
//	                              (?format=text|json|html)
//	GET  /debug/decisions         decision provenance journal: the flight
//	                              recorder's recent advise and drift records
//	                              (?format=text|json, filterable)
//	GET  /debug/traces            tail-sampled slow and errored traces as span
//	                              trees (-trace-slow; ?format=text|json)
//	GET  /healthz                 liveness and model count (stays 200 during
//	                              drain; /v1/health flips to draining)
//	GET  /metrics                 service metrics, text exposition (latency
//	                              buckets carry request-ID exemplars);
//	                              ?format=json serves the same typed samples
//	GET  /debug/pprof/            runtime profiling (only with -pprof)
//
// Every request carries a correlation ID: a client-supplied X-Request-ID is
// propagated, otherwise one is minted; either way it is echoed in the
// response header, every log line, and (with -trace) the request's spans.
//
// The process drains in-flight requests and exits cleanly on SIGINT or
// SIGTERM; buffered trace output is flushed before exit on every path. With
// -check it only validates the registry (exit 0 when every model loads,
// non-zero otherwise) without binding a socket — the CI gate for freshly
// trained or hand-shipped artifacts.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/training"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("brainy-serve: ")
	// All real work happens in run so its defers — trace flush above all —
	// execute on every exit path; log.Fatal here would skip them.
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		modelsPath  = flag.String("models", "models.json", "trained model registry (from brainy-train)")
		addr        = flag.String("addr", ":8377", "listen address")
		arch        = flag.String("arch", "Core2", "architecture assumed when a request omits ?arch=")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		maxBody     = flag.Int64("max-body", 32<<20, "advise body size limit in bytes")
		maxProfiles = flag.Int("max-profiles", 10000, "advise trace record limit")
		shards      = flag.Int("shards", 0, "advisor shards owning cache/timeline/drift state and one batch queue each (0 = GOMAXPROCS)")
		batch       = flag.Int("batch", 32, "max queued inferences coalesced into one ANN matrix pass per shard")
		logRequests = flag.Bool("log-requests", true, "emit one structured log line per request (disable for load tests)")
		cacheSize   = flag.Int("cache", 4096, "inference cache entries (negative disables)")
		grace       = flag.Duration("grace", 10*time.Second, "shutdown drain budget")
		check       = flag.Bool("check", false, "validate the model registry and exit without serving")
		enablePprof = flag.Bool("pprof", false, "mount /debug/pprof/ (opt-in: profiling endpoints on a production listener)")
		traceOut    = flag.String("trace", "", "write a JSON-lines span trace of served requests to this file")

		maxInstances = flag.Int("max-instances", 256, "instance timelines retained for /v1/profiles (LRU beyond)")
		timelineWin  = flag.Int("timeline-windows", 32, "recent windows retained per instance timeline")
		driftRules   = flag.Bool("drift-rules", false, "evaluate drift with the deterministic rules advisor instead of the loaded models")
		driftWindow  = flag.Int("drift-window", 0, "windows blended per drift evaluation (0 = default)")
		driftHyst    = flag.Int("drift-hysteresis", 0, "consecutive divergent verdicts before a drift event (0 = default)")
		flightSize   = flag.Int("flight-size", 0, "decision flight-recorder records retained per shard on /debug/decisions (0 = default 256, negative disables)")

		sampleInterval = flag.Duration("sample-interval", time.Second, "self-observation scrape cadence for /v1/timeseries and /v1/health (negative disables)")
		samplePoints   = flag.Int("sample-points", 360, "points retained per self-observation series")
		traceSlow      = flag.Duration("trace-slow", 0, "tail-sample traces whose root span is at least this slow onto /debug/traces (0 disables the buffer)")
		traceBufSize   = flag.Int("trace-buffer", 64, "traces retained by the tail sampler")
		drainDelay     = flag.Duration("drain-delay", 0, "how long /v1/health advertises draining before the listener closes on shutdown")
		sloFastWin     = flag.Duration("slo-fast-window", time.Minute, "fast burn-rate window for /v1/health")
		sloSlowWin     = flag.Duration("slo-slow-window", 5*time.Minute, "slow burn-rate window for /v1/health")
		sloHyst        = flag.Int("slo-hysteresis", 2, "consecutive agreeing evaluations before a health verdict flips")
		sloAdviseP99   = flag.Duration("slo-advise-p99", 250*time.Millisecond, "advise latency SLO threshold")
		sloDegraded    = flag.Float64("slo-degraded-burn", 1, "error-budget burn rate that reports degraded")
		sloCritical    = flag.Float64("slo-critical-burn", 10, "error-budget burn rate that reports critical (503)")
	)
	flag.Parse()

	f, err := os.Open(*modelsPath)
	if err != nil {
		return err
	}
	set, err := training.LoadModelSet(f)
	f.Close()
	if err != nil {
		return err
	}
	if *check {
		log.Printf("%s: ok (%d models)", *modelsPath, set.Len())
		return nil
	}

	// The tracer fans out to whichever span sinks are enabled: the JSON-lines
	// file (-trace) and the tail-sampling buffer behind /debug/traces
	// (-trace-slow). With neither, the tracer is nil and spans cost nothing.
	var exps []telemetry.Exporter
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		exp := telemetry.NewJSONLinesExporter(tf)
		// Runs after the server has drained, on interrupt and error paths
		// alike: a SIGINT must never truncate the buffered span tail.
		defer func() {
			if err := exp.Close(); err != nil {
				log.Printf("warning: writing trace %s: %v", *traceOut, err)
			}
		}()
		exps = append(exps, exp)
	}
	var traceBuf *telemetry.TraceBuffer
	if *traceSlow > 0 {
		traceBuf = telemetry.NewTraceBuffer(*traceSlow, *traceBufSize)
		exps = append(exps, traceBuf)
	}
	tracer := telemetry.NewTracer(telemetry.Fanout(exps...))

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv := serve.New(set, serve.Config{
		Addr:            *addr,
		DefaultArch:     *arch,
		MaxBodyBytes:    *maxBody,
		MaxProfiles:     *maxProfiles,
		RequestTimeout:  *timeout,
		Shards:          *shards,
		BatchSize:       *batch,
		NoRequestLog:    !*logRequests,
		CacheSize:       *cacheSize,
		ShutdownGrace:   *grace,
		Logger:          logger,
		Tracer:          tracer,
		EnablePprof:     *enablePprof,
		MaxInstances:    *maxInstances,
		TimelineWindows: *timelineWin,
		DriftRules:      *driftRules,
		DriftWindow:     *driftWindow,
		DriftHysteresis: *driftHyst,
		FlightSize:      *flightSize,
		SampleInterval:  *sampleInterval,
		SamplePoints:    *samplePoints,
		AdviseP99Max:    *sloAdviseP99,
		SLOFastWindow:   *sloFastWin,
		SLOSlowWindow:   *sloSlowWin,
		SLODegradedBurn: *sloDegraded,
		SLOCriticalBurn: *sloCritical,
		SLOHysteresis:   *sloHyst,
		Traces:          traceBuf,
		DrainDelay:      *drainDelay,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return srv.ListenAndServe(ctx)
}
