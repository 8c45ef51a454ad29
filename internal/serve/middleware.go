package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// statusWriter captures the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// requestIDHeader is the inbound/outbound correlation header. The server
// propagates a client-supplied value and mints one otherwise, so every log
// line and span of a request shares an identifier.
const requestIDHeader = "X-Request-ID"

// requestIDKey carries the request ID through the request context.
type requestIDKey struct{}

// RequestIDFromContext returns the request's correlation ID, or "".
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// requestID propagates or mints the correlation ID for one request.
func requestID(r *http.Request) string {
	if id := r.Header.Get(requestIDHeader); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		return id
	}
	return telemetry.NewID().String()
}

// otherPath is the single label unknown request paths collapse into, so a
// URL scanner cannot mint an unbounded brainy_requests_total label set.
const otherPath = "<other>"

// routeCounters caches the per-status-code counters of one route. The label
// string for a (route, code) pair is rendered once; after that the hot path
// is a read-locked map hit — no fmt.Sprintf per request.
type routeCounters struct {
	path string
	vec  *telemetry.CounterVec

	mu     sync.RWMutex
	byCode map[int]*telemetry.Counter
}

func newRouteCounters(path string, vec *telemetry.CounterVec) *routeCounters {
	return &routeCounters{path: path, vec: vec, byCode: make(map[int]*telemetry.Counter)}
}

// counter returns the route's counter for one status code, rendering and
// caching the label string on first use.
func (rc *routeCounters) counter(code int) *telemetry.Counter {
	rc.mu.RLock()
	c := rc.byCode[code]
	rc.mu.RUnlock()
	if c != nil {
		return c
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if c := rc.byCode[code]; c != nil {
		return c
	}
	c = rc.vec.With(fmt.Sprintf("path=%q,code=\"%d\"", rc.path, code))
	rc.byCode[code] = c
	return c
}

// requestCounter resolves the counter for a finished request, mapping
// non-routed paths to the shared <other> bucket and every pprof page to
// one /debug/pprof/ label.
func (s *Server) requestCounter(path string, code int) *telemetry.Counter {
	rc, ok := s.routes[path]
	if !ok {
		if s.cfg.EnablePprof && strings.HasPrefix(path, pprofPrefix) {
			rc = s.routes[pprofPrefix]
		} else {
			rc = s.otherRoute
		}
	}
	return rc.counter(code)
}

// observe wraps the route table with the request observability stack:
// correlation ID (propagated or minted, echoed in the response header), the
// in-flight gauge, per-route/per-code counters, the latency histogram, an
// optional request span, and one structured log line per request.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := requestID(r)
		w.Header().Set(requestIDHeader, id)
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		var span *telemetry.Span
		if s.tracer.Enabled() {
			ctx, span = s.tracer.Start(ctx, "request")
			span.SetStr("method", r.Method)
			span.SetStr("path", r.URL.Path)
			span.SetStr("request_id", id)
		}
		r = r.WithContext(ctx)

		s.metrics.InFlight.Inc()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		s.metrics.InFlight.Dec()
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.requestCounter(r.URL.Path, sw.status).Inc()
		// Advise requests stamp their correlation ID as the latency
		// histogram's bucket exemplar, so a p99 spike on /metrics links
		// straight to a journaled decision. Only the advise path: exemplars
		// from scrapes or ingest would evict the IDs worth investigating.
		if r.URL.Path == "/v1/advise" {
			s.metrics.Latency.ObserveExemplar(elapsed.Seconds(), id)
			s.metrics.AdviseLatency.Observe(elapsed.Seconds())
		} else {
			s.metrics.Latency.Observe(elapsed.Seconds())
		}
		if span != nil {
			span.SetInt("status", int64(sw.status))
			// A server-error response marks the whole trace: the tail
			// sampler retains errored traces regardless of duration.
			if sw.status >= 500 {
				span.SetAttr("error", true)
			}
			span.End()
		}
		// The request line is opt-out: at load-test rates every request
		// serializes on the slog handler's lock, so NoRequestLog exists
		// to keep logging off the contention profile.
		if !s.cfg.NoRequestLog {
			s.log.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"bytes", sw.bytes,
				"duration", elapsed.String(),
				"remote", r.RemoteAddr,
				"request_id", id,
			)
		}
	})
}
