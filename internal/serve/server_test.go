package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/training"
)

// testModels builds a deterministic registry without the expensive training
// loop: an untrained network with a fixed seed predicts reproducibly, which
// is all the service plumbing under test needs.
func testModels() *training.ModelSet {
	set := training.NewModelSet()
	tgt := adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}
	cands := adt.CandidatesWithOriginal(tgt.Kind, tgt.OrderAware)
	cfg := ann.DefaultConfig()
	cfg.Seed = 7
	set.Put(&training.Model{
		Target:     tgt,
		Arch:       "Core2",
		Candidates: cands,
		Net:        ann.New(profile.NumFeatures, len(cands), cfg),
	})
	return set
}

func quietConfig(cfg Config) Config {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	return cfg
}

// traceBody renders profiles in the JSON-lines trace format.
func traceBody(t *testing.T, profiles []profile.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.WriteTrace(&buf, profiles); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startServer runs a Server on a loopback port and returns its base URL and
// a shutdown func.
func startServer(t *testing.T, s *Server) (string, context.CancelFunc) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return "http://" + ln.Addr().String(), cancel
}

func postAdvise(t *testing.T, url string, body []byte, arch string) (*http.Response, AdviseResponse) {
	t.Helper()
	target := url + "/v1/advise"
	if arch != "" {
		target += "?arch=" + arch
	}
	resp, err := http.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out AdviseResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding advise response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, out
}

// TestAdviseMatchesCLIPlan is the end-to-end contract: for an identical
// trace and architecture, the service answers with exactly the plan and
// report the brainy CLI computes via core.Analyze.
func TestAdviseMatchesCLIPlan(t *testing.T) {
	models := testModels()
	s := New(models, quietConfig(Config{}))
	url, _ := startServer(t, s)

	profiles := []profile.Profile{
		vectorProfile("app/hot.cache", 800),
		vectorProfile("app/cold.list", 50),
	}
	body := traceBody(t, profiles)

	resp, got := postAdvise(t, url, body, "Core2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	// What the CLI prints for the same trace+arch (cmd/brainy is a thin
	// wrapper over core.Analyze + Report.Plan).
	want := core.New(models).Analyze(profiles, "Core2")
	if got.Arch != want.Arch || got.Profiles != 2 {
		t.Fatalf("arch=%q profiles=%d", got.Arch, got.Profiles)
	}
	if !reflect.DeepEqual(got.Plan, want.Plan()) {
		t.Fatalf("service plan diverges from CLI plan:\n got %+v\nwant %+v", got.Plan, want.Plan())
	}
	if !reflect.DeepEqual(got.Suggestions, want.Suggestions) {
		t.Fatalf("service suggestions diverge:\n got %+v\nwant %+v", got.Suggestions, want.Suggestions)
	}
	if len(got.Suggestions) != 2 || got.Suggestions[0].Context != "app/hot.cache" {
		t.Fatalf("report not prioritized by cycle share: %+v", got.Suggestions)
	}
}

func TestAdviseAcceptsJSONArray(t *testing.T) {
	s := New(testModels(), quietConfig(Config{}))
	url, _ := startServer(t, s)
	lines := traceBody(t, []profile.Profile{vectorProfile("a", 100), vectorProfile("b", 100)})
	recs := strings.Split(strings.TrimSpace(string(lines)), "\n")
	array := []byte("[" + strings.Join(recs, ",") + "]")
	resp, got := postAdvise(t, url, array, "")
	if resp.StatusCode != http.StatusOK || got.Profiles != 2 {
		t.Fatalf("status=%d profiles=%d", resp.StatusCode, got.Profiles)
	}
	if got.Arch != "Core2" { // DefaultArch filled in
		t.Fatalf("arch = %q", got.Arch)
	}
}

func TestAdviseSkipsUnknownModels(t *testing.T) {
	s := New(testModels(), quietConfig(Config{}))
	url, _ := startServer(t, s)
	p := vectorProfile("known", 100)
	q := p
	q.Kind = adt.KindSet
	q.Context = "unknown"
	resp, got := postAdvise(t, url, traceBody(t, []profile.Profile{p, q}), "Core2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(got.Suggestions) != 1 || len(got.Skipped) != 1 || got.Skipped[0] != "unknown" {
		t.Fatalf("skip handling: %+v", got)
	}
}

func TestAdviseCacheHitsAndMetrics(t *testing.T) {
	s := New(testModels(), quietConfig(Config{}))
	url, _ := startServer(t, s)
	body := traceBody(t, []profile.Profile{vectorProfile("a", 200)})

	if resp, _ := postAdvise(t, url, body, "Core2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first advise status = %d", resp.StatusCode)
	}
	if s.Metrics().CacheMisses.Value() == 0 {
		t.Fatal("first request did not miss the cache")
	}
	// Same trace again: the inference must come from the cache, and the
	// per-request Context must be re-stamped.
	resp, got := postAdvise(t, url, body, "Core2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second advise status = %d", resp.StatusCode)
	}
	if s.Metrics().CacheHits.Value() == 0 {
		t.Fatal("identical request did not hit the cache")
	}
	if len(got.Suggestions) != 1 || got.Suggestions[0].Context != "a" {
		t.Fatalf("cached suggestion lost its context: %+v", got.Suggestions)
	}

	// The exposition page reflects the traffic.
	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	page, _ := io.ReadAll(mresp.Body)
	text := string(page)
	for _, want := range []string{
		`brainy_requests_total{path="/v1/advise",code="200"} 2`,
		"brainy_cache_hits_total 1",
		"brainy_cache_misses_total 1",
		`brainy_inferences_total{arch="Core2"} 1`,
		"brainy_profiles_analyzed_total 2",
		"brainy_request_duration_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics page missing %q:\n%s", want, text)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := New(testModels(), quietConfig(Config{}))
	url, _ := startServer(t, s)
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Models != 1 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}
}

func TestAdviseRejections(t *testing.T) {
	s := New(testModels(), quietConfig(Config{MaxBodyBytes: 256, MaxProfiles: 1}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/advise", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("this is not json"); code != http.StatusBadRequest {
		t.Fatalf("garbage body: %d, want 400", code)
	}
	if code := post(""); code != http.StatusBadRequest {
		t.Fatalf("empty body: %d, want 400", code)
	}
	// A single well-formed record bigger than the byte cap: the decoder
	// hits the MaxBytesReader limit mid-token.
	huge := `{"context":"` + strings.Repeat("a", 4096) + `"}`
	if code := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", code)
	}
	// Two tiny records exceed MaxProfiles=1 without tripping the byte cap.
	if code := post(`{"context":"a"}` + "\n" + `{"context":"b"}`); code != http.StatusBadRequest {
		t.Fatalf("too many records: %d, want 400", code)
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/advise")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET advise: %d, want 405", resp.StatusCode)
	}
}

func TestAdviseTimeout(t *testing.T) {
	// A nanosecond deadline expires before the inference-slot wait, so the
	// handler must answer 408 deterministically.
	s := New(testModels(), quietConfig(Config{RequestTimeout: time.Nanosecond}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := traceBody(t, []profile.Profile{vectorProfile("a", 50)})
	resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408", resp.StatusCode)
	}
}

// TestGracefulShutdownDrains checks the SIGTERM contract: a request already
// in flight when shutdown begins still completes, and the listener stops
// accepting new connections afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(testModels(), quietConfig(Config{ShutdownGrace: 5 * time.Second}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()

	// Open a request whose body arrives slowly: the handler blocks in the
	// streaming decoder while we shut the server down around it.
	pr, pw := io.Pipe()
	type result struct {
		resp *http.Response
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, url+"/v1/advise?arch=Core2", pr)
		resp, err := http.DefaultClient.Do(req)
		resc <- result{resp, err}
	}()

	body := traceBody(t, []profile.Profile{vectorProfile("inflight", 100)})
	half := len(body) / 2
	if _, err := pw.Write(body[:half]); err != nil {
		t.Fatal(err)
	}
	cancel() // begin the drain with the request mid-flight
	time.Sleep(50 * time.Millisecond)
	if _, err := pw.Write(body[half:]); err != nil {
		t.Fatalf("finishing in-flight body: %v", err)
	}
	pw.Close()

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	defer res.resp.Body.Close()
	var out AdviseResponse
	if err := json.NewDecoder(res.resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if res.resp.StatusCode != http.StatusOK || len(out.Suggestions) != 1 {
		t.Fatalf("drained request: status=%d %+v", res.resp.StatusCode, out)
	}

	if err := <-served; err != nil {
		t.Fatalf("Serve = %v, want clean drain", err)
	}
	// The listener is closed: new connections must fail.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

func TestConcurrentAdvise(t *testing.T) {
	// Hammer the server from several goroutines; run under -race in CI.
	s := New(testModels(), quietConfig(Config{}))
	url, _ := startServer(t, s)
	const workers, perWorker = 6, 5
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				body := traceBody(t, []profile.Profile{vectorProfile(fmt.Sprintf("w%d", w), 50+10*i)})
				resp, err := http.Post(url+"/v1/advise?arch=Core2", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics().Requests.Total(); got != workers*perWorker {
		t.Fatalf("request counter = %d, want %d", got, workers*perWorker)
	}
}
