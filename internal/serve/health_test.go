package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/tsdb"
)

// observedServer builds a server whose self-observation runs on a synthetic
// clock: the background sampler is parked (hour-long interval) and replaced
// with a fake-clocked one over the same registry, so tests control scrape
// cadence and timestamps exactly. step advances the clock one second and
// scrapes (which re-evaluates the SLOs, as in production).
func observedServer(t testing.TB, sloCfg slo.Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	s := New(testModels(), quietConfig(Config{SampleInterval: time.Hour}))
	t.Cleanup(s.Close)
	clock := time.Unix(1_000_000, 0)
	sam := tsdb.New(s.metrics.Registry(), tsdb.Config{
		Now:      func() time.Time { return clock },
		NoGauges: true, // the parked sampler already registered them
		OnSample: func(now time.Time) { s.evaluator.Evaluate(now) },
	})
	s.sampler = sam
	s.evaluator = slo.New(sam.DB(), s.defaultObjectives(), sloCfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	step := func() {
		clock = clock.Add(time.Second)
		sam.Scrape()
	}
	return s, ts, step
}

// getHealth fetches /v1/health and decodes it.
func getHealth(t *testing.T, base string) (int, HealthResponse) {
	t.Helper()
	resp, err := http.Get(base + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestHealthAvailabilityFlipsAndRecovers drives the availability objective
// through the full cycle: healthy traffic, an error burst that must survive
// hysteresis before the verdict flips, then recovery once the windows drain.
func TestHealthAvailabilityFlipsAndRecovers(t *testing.T) {
	s, ts, step := observedServer(t, slo.Config{
		FastWindow: 2 * time.Second,
		SlowWindow: 4 * time.Second,
		Hysteresis: 2,
		// Keep the verdict in degraded territory: this test is about the
		// flip mechanics, not the critical threshold.
		CriticalBurn: 1e9,
	})

	// Healthy traffic, sampled each second.
	for i := 0; i < 5; i++ {
		for j := 0; j < 100; j++ {
			s.requestCounter("/v1/advise", 200).Inc()
		}
		step()
	}
	code, h := getHealth(t, ts.URL)
	if code != http.StatusOK || h.Status != "ok" || !h.Enabled {
		t.Fatalf("healthy server: code=%d %+v", code, h)
	}
	if len(h.SLO.Objectives) != 4 {
		t.Fatalf("objective count = %d, want 4", len(h.SLO.Objectives))
	}

	// Error burst: the first agreeing evaluation only arms the streak.
	for j := 0; j < 100; j++ {
		s.requestCounter("/v1/advise", 500).Inc()
	}
	step()
	if _, h := getHealth(t, ts.URL); h.Status != "ok" {
		t.Fatalf("flipped without hysteresis: %+v", h)
	}
	for j := 0; j < 100; j++ {
		s.requestCounter("/v1/advise", 500).Inc()
	}
	step()
	code, h = getHealth(t, ts.URL)
	if code != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("after confirmed burst: code=%d status=%q", code, h.Status)
	}
	var reason string
	for _, o := range h.SLO.Objectives {
		if o.Name == "advise-availability" {
			reason = o.Reason
		}
	}
	if !strings.Contains(reason, "advise-availability") || !strings.Contains(reason, "burn") {
		t.Fatalf("degraded objective reason = %q", reason)
	}

	// Silence drains the windows; hysteresis delays the flip back.
	recovered := false
	for i := 0; i < 12 && !recovered; i++ {
		step()
		_, h = getHealth(t, ts.URL)
		recovered = h.Status == "ok"
	}
	if !recovered {
		t.Fatalf("never recovered: %+v", h)
	}
}

// TestHealthCriticalReturns503 checks the load-balancer contract: a critical
// verdict answers 503 so upstreams stop routing here.
func TestHealthCriticalReturns503(t *testing.T) {
	s, ts, step := observedServer(t, slo.Config{
		FastWindow: 2 * time.Second,
		SlowWindow: 2 * time.Second,
		Hysteresis: 1,
	})
	step()
	for j := 0; j < 100; j++ {
		s.requestCounter("/v1/advise", 500).Inc()
	}
	step() // 100% errors: burn 1000x the 0.1% budget, critical immediately
	code, h := getHealth(t, ts.URL)
	if code != http.StatusServiceUnavailable || h.Status != "critical" {
		t.Fatalf("critical verdict: code=%d status=%q", code, h.Status)
	}
}

// TestHealthLatencyObjectiveFlips drives the advise-p99 objective directly
// through the advise-only histogram, the same series the CI burst exercises.
func TestHealthLatencyObjectiveFlips(t *testing.T) {
	s, ts, step := observedServer(t, slo.Config{
		FastWindow:   2 * time.Second,
		SlowWindow:   2 * time.Second,
		Hysteresis:   1,
		CriticalBurn: 1e9,
	})
	for i := 0; i < 3; i++ {
		s.metrics.AdviseLatency.Observe(0.001)
		step()
	}
	if _, h := getHealth(t, ts.URL); h.Status != "ok" {
		t.Fatalf("fast advises: %+v", h)
	}
	// A burst entirely above the 250ms default threshold.
	for j := 0; j < 50; j++ {
		s.metrics.AdviseLatency.Observe(1.0)
	}
	step()
	_, h := getHealth(t, ts.URL)
	if h.Status != "degraded" {
		t.Fatalf("slow burst: status=%q %+v", h.Status, h.SLO.Objectives)
	}
	found := false
	for _, o := range h.SLO.Objectives {
		if o.Name == "advise-p99" && o.State == slo.StateDegraded {
			found = true
		}
	}
	if !found {
		t.Fatalf("degradation not attributed to advise-p99: %+v", h.SLO.Objectives)
	}
}

func TestTimeseriesEndpoint(t *testing.T) {
	s, ts, step := observedServer(t, slo.Config{})
	for i := 0; i < 4; i++ {
		s.requestCounter("/v1/advise", 200).Inc()
		s.metrics.AdviseLatency.Observe(0.002)
		step()
	}

	// Catalog form: every registry metric became a series.
	resp, err := http.Get(ts.URL + "/v1/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	var cat TimeseriesResponse
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !cat.Enabled || len(cat.Series) == 0 {
		t.Fatalf("catalog: %+v", cat)
	}
	names := make(map[string]bool, len(cat.Series))
	for _, si := range cat.Series {
		names[si.Name] = true
	}
	for _, want := range []string{
		`brainy_requests_total{path="/v1/advise",code="200"}`,
		"brainy_advise_duration_seconds",
		"brainy_inflight_requests",
	} {
		if !names[want] {
			t.Fatalf("catalog missing %q: %v", want, cat.Series)
		}
	}

	// Point form, including a derived quantile series.
	q := url.Values{}
	q.Set("series", `brainy_requests_total{path="/v1/advise",code="200"},brainy_advise_duration_seconds:p99`)
	resp, err = http.Get(ts.URL + "/v1/timeseries?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	var pts TimeseriesResponse
	if err := json.NewDecoder(resp.Body).Decode(&pts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	raw := pts.Points[`brainy_requests_total{path="/v1/advise",code="200"}`]
	if len(raw) != 4 || raw[len(raw)-1].V != 4 {
		t.Fatalf("counter points: %+v", raw)
	}
	p99 := pts.Points["brainy_advise_duration_seconds:p99"]
	if len(p99) == 0 {
		t.Fatalf("derived p99 series empty: %+v", pts.Points)
	}
	for _, p := range p99 {
		if p.V <= 0 || p.V > 0.01 {
			t.Fatalf("p99 point %v outside the observed bucket", p.V)
		}
	}

	// Bad since is a 400.
	resp, err = http.Get(ts.URL + "/v1/timeseries?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: %d, want 400", resp.StatusCode)
	}
}

// FuzzTimeseriesQuery drives /v1/timeseries with arbitrary series lists and
// since values against a store holding counter, gauge and histogram series:
// nothing panics, and every answer is a 400 or a 200 whose body decodes as
// a TimeseriesResponse.
func FuzzTimeseriesQuery(f *testing.F) {
	s, _, step := observedServer(f, slo.Config{})
	for i := 0; i < 4; i++ {
		s.requestCounter("/v1/advise", 200).Add(uint64(i))
		s.metrics.AdviseLatency.Observe(0.001 * float64(1+i*i))
		s.metrics.InFlight.Set(float64(i))
		step()
	}
	h := s.Handler()
	for _, series := range []string{
		"",
		`brainy_requests_total{path="/v1/advise",code="200"}`,
		`brainy_requests_total{path="/v1/advise",code="200"}:rate`,
		"brainy_inflight_requests:rate",
		"brainy_advise_duration_seconds:p50",
		"brainy_advise_duration_seconds:p90,brainy_advise_duration_seconds:p99",
		`brainy_requests_total{path="/v1/advise",code="200"},brainy_advise_duration_seconds:p99`,
		"brainy_advise_duration_seconds:p42",
		"brainy_inflight_requests:p99",
		"brainy_advise_duration_seconds:rate:rate",
		":", ":p50", ",", "{,}", "{", "}}",
		`up{addr="127.0.0.1:8377"}`, `up{addr="127.0.0.1:8377"}:rate`,
	} {
		for _, since := range []string{"", "30s", "-5s", "2000-01-01T00:00:00Z", "1000000", "-1", "garbage"} {
			f.Add(series, since)
		}
	}
	f.Fuzz(func(t *testing.T, series, since string) {
		q := url.Values{"series": {series}, "since": {since}}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/timeseries?"+q.Encode(), nil))
		switch rec.Code {
		case http.StatusOK:
			var out TimeseriesResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 body does not decode: %v\n%s", err, rec.Body)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}

// TestHealthDisabled checks the negative-interval escape hatch: /v1/health
// stays a 200 liveness answer and /v1/timeseries reports disabled.
func TestHealthDisabled(t *testing.T) {
	s := New(testModels(), quietConfig(Config{SampleInterval: -1}))
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, h := getHealth(t, ts.URL)
	if code != http.StatusOK || h.Status != "ok" || h.Enabled {
		t.Fatalf("disabled health: code=%d %+v", code, h)
	}
	resp, err := http.Get(ts.URL + "/v1/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out TimeseriesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Enabled || len(out.Series) != 0 {
		t.Fatalf("disabled timeseries: %+v", out)
	}
}

// TestObservabilityUnderConcurrency hammers the full self-observation stack
// at once — a fast background sampler, concurrent advises through the tracer
// and tail buffer, and readers on every new surface — then drains. Run under
// -race in CI; the assertion is the detector staying quiet plus a clean drain.
func TestObservabilityUnderConcurrency(t *testing.T) {
	buf := telemetry.NewTraceBuffer(time.Nanosecond, 32)
	s := New(testModels(), quietConfig(Config{
		SampleInterval: 5 * time.Millisecond,
		Tracer:         telemetry.NewTracer(telemetry.Fanout(buf)),
		Traces:         buf,
		ShutdownGrace:  5 * time.Second,
	}))
	base, _ := startServer(t, s)

	get := func(path string) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}
	const workers, iters = 4, 8
	errs := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < iters; i++ {
				body := traceBody(t, []profile.Profile{vectorProfile(fmt.Sprintf("race-w%d-%d", w, i), 50)})
				resp, err := http.Post(base+"/v1/advise?arch=Core2", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			errs <- nil
		}(w)
		go func() {
			for i := 0; i < iters; i++ {
				for _, p := range []string{
					"/v1/health",
					"/v1/timeseries",
					"/v1/timeseries?series=brainy_advise_duration_seconds:p99",
					"/debug/traces",
					"/debug/traces?format=json",
				} {
					if err := get(p); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < 2*workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// The cleanup registered by startServer cancels Serve and asserts a
	// clean drain with the sampler still running.
}

// TestHealthReportsDrainingDuringDrain is the readiness/liveness split: once
// shutdown begins, /v1/health answers 503 `draining` while /healthz keeps
// answering 200 — orchestrators must stop routing without killing a process
// that is still finishing accepted work.
func TestHealthReportsDrainingDuringDrain(t *testing.T) {
	s := New(testModels(), quietConfig(Config{
		ShutdownGrace: 5 * time.Second,
		DrainDelay:    2 * time.Second,
	}))
	url, cancel := startServer(t, s)

	if code, h := getHealth(t, url); code != http.StatusOK || h.Draining {
		t.Fatalf("pre-drain health: code=%d %+v", code, h)
	}
	cancel()

	// Poll until the drain window opens (the flag flips just after cancel).
	deadline := time.Now().Add(time.Second)
	var code int
	var h HealthResponse
	for time.Now().Before(deadline) {
		code, h = getHealth(t, url)
		if h.Draining {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !h.Draining || h.Status != "draining" || code != http.StatusServiceUnavailable {
		t.Fatalf("during drain: code=%d %+v", code, h)
	}

	// Liveness is a different question with a different answer.
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200 (liveness must not fail)", resp.StatusCode)
	}
}
