package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
)

// The allocation budgets TestWireAllocBudget holds. With go1.24.0 the two
// requests allocate 44 and 29, and allocated 69 and 50 with encoding/json
// on both paths. Each budget sits between the two, so reflection coming
// back on either path fails the test, while another Go release's counts
// in net/http, encoding/json and maps have room.
const (
	adviseAllocBudget = 55
	ingestAllocBudget = 38
)

// TestNonFiniteFeaturesRejected: a record whose feature vector is not
// finite (a negative "cycles" makes cycles_per_call NaN) is refused with
// 400 on both intake paths, before it reaches the cache, the flight ring,
// the rollup or a timeline, so the journal and the rollup still encode.
func TestNonFiniteFeaturesRejected(t *testing.T) {
	s := rulesServer(Config{})
	url, _ := startServer(t, s)

	p := vectorProfile("poison/site", 40)
	p.Cycles = -1000000
	body := traceBody(t, []profile.Profile{p})
	if resp, _ := postAdvise(t, url, body, "Core2"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("advise with negative cycles: status %d, want 400", resp.StatusCode)
	}
	w := profile.WindowRecord{Profile: p, EndOp: 10}
	var windows bytes.Buffer
	if err := profile.WriteWindows(&windows, []profile.WindowRecord{w}); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postProfiles(t, url, windows.Bytes()); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ingest with negative cycles: status %d, want 400", resp.StatusCode)
	}
	// A healthy advise afterwards journals and rolls up as usual.
	if resp, _ := postAdvise(t, url, traceBody(t, []profile.Profile{vectorProfile("ok/site", 40)}), "Core2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy advise: status %d", resp.StatusCode)
	}
	var roll RollupResponse
	getJSON(t, url+"/v1/rollup", &roll)
	if roll.AdviseDecisions != 1 || roll.Windows != 0 {
		t.Fatalf("rollup counts the refused records: %+v", roll)
	}
	var dec DecisionsResponse
	getJSON(t, url+decisionsPath+"?format=json", &dec)
	if dec.Returned != 1 || dec.Records[0].Context != "ok/site" {
		t.Fatalf("journal holds %d records: %+v", dec.Returned, dec.Records)
	}
	if got := s.Metrics().TimelineInstances.Value(); got != 0 {
		t.Fatalf("refused window left %v timelines", got)
	}
}

// TestSmallNegativeCyclesRejected: a negative "cycles" smaller in size
// than the record's call count leaves every feature finite, and is still
// refused with 400 on both intake paths, before anything is counted.
func TestSmallNegativeCyclesRejected(t *testing.T) {
	s := rulesServer(Config{})
	url, _ := startServer(t, s)

	p := vectorProfile("negative/site", 40)
	p.Cycles = -5
	for i, f := range p.Vector() {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("feature %s is %v; the case needs a finite vector", profile.FeatureNames[i], f)
		}
	}
	if resp, _ := postAdvise(t, url, traceBody(t, []profile.Profile{p}), "Core2"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("advise with cycles -5: status %d, want 400", resp.StatusCode)
	}
	var windows bytes.Buffer
	if err := profile.WriteWindows(&windows, []profile.WindowRecord{{Profile: p, EndOp: 10}}); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postProfiles(t, url, windows.Bytes()); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ingest with cycles -5: status %d, want 400", resp.StatusCode)
	}
	var roll RollupResponse
	getJSON(t, url+"/v1/rollup", &roll)
	if roll.AdviseDecisions != 0 || roll.Windows != 0 {
		t.Fatalf("rollup counts the refused records: %+v", roll)
	}
	if n := s.Metrics().ProfileWindows.Value(); n != 0 {
		t.Fatalf("window counter %d, want 0", n)
	}
}

// TestRefusedBatchAppliesNothing: a batch is checked whole before any of
// it is applied, so a batch refused after a good window — with 400 for a
// non-finite or negative-cycles window, or 413 for a body cut past the
// byte cap — leaves no timeline, instance gauge, window count or rollup row
// behind, and a client can retry it without ingesting that window twice.
func TestRefusedBatchAppliesNothing(t *testing.T) {
	good := profile.WindowRecord{Profile: vectorProfile("refused/site", 40), EndOp: 10}
	var first bytes.Buffer
	if err := profile.WriteWindows(&first, []profile.WindowRecord{good}); err != nil {
		t.Fatal(err)
	}
	next := good
	next.Seq, next.StartOp, next.EndOp = 1, 10, 20
	bad := next
	bad.Cycles = -1000000
	negative := next
	negative.Cycles = -5
	for _, tc := range []struct {
		name    string
		maxBody int64
		second  profile.WindowRecord
		status  int
	}{
		{"non-finite window", 0, bad, http.StatusBadRequest},
		{"small negative cycles", 0, negative, http.StatusBadRequest},
		{"body past the cap", int64(first.Len()) + 16, next, http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := rulesServer(Config{Shards: 2, MaxBodyBytes: tc.maxBody})
			url, _ := startServer(t, s)
			var body bytes.Buffer
			if err := profile.WriteWindows(&body, []profile.WindowRecord{good, tc.second}); err != nil {
				t.Fatal(err)
			}
			if resp, _ := postProfiles(t, url, body.Bytes()); resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			retained := 0
			for _, sh := range s.shards {
				retained += len(sh.timelines.rows())
			}
			var roll RollupResponse
			getJSON(t, url+"/v1/rollup", &roll)
			if gauge := s.Metrics().TimelineInstances.Value(); gauge != 0 || roll.Instances != 0 || retained != 0 {
				t.Fatalf("instances: gauge %v, rollup %d, retained %d; want 0 each", gauge, roll.Instances, retained)
			}
			if n := s.Metrics().ProfileWindows.Value(); n != 0 || roll.Windows != 0 {
				t.Fatalf("windows: counter %d, rollup %d; want 0 each", n, roll.Windows)
			}
		})
	}
}

// TestWriteJSONRefusalAnswers500: a value encoding/json refuses gets 500
// with the error envelope, not a 200 with an empty body.
func TestWriteJSONRefusalAnswers500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"confidence": math.NaN()})
	var env map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, body %q (%v)", rec.Code, rec.Body.String(), err)
	}
	if !strings.Contains(env["error"], "NaN") {
		t.Fatalf("error envelope %q", env["error"])
	}
	// The reply writer hands a non-finite reply to writeJSON whole.
	rec = httptest.NewRecorder()
	resp := AdviseResponse{Arch: "Core2", Plan: []core.PlanEntry{{Confidence: math.Inf(1)}}}
	writeReply(rec, &resp, appendAdvise)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("non-finite reply: status %d", rec.Code)
	}
}

// TestWireAllocBudget pins the allocations of the two hot requests through
// Server.Handler, flight recorder on (the default), after one warm-up
// request: a cached one-profile advise and a one-window ingest. A change
// that puts reflection or a per-request buffer back on either path shows
// here.
func TestWireAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's sync.Pool drops buffers at random")
	}
	s := New(testModels(), quietConfig(Config{NoRequestLog: true, SampleInterval: -1}))
	defer s.Close()
	h := s.Handler()
	advise := traceBody(t, []profile.Profile{vectorProfile("alloc/site", 60)})
	var windows bytes.Buffer
	w := profile.WindowRecord{Profile: vectorProfile("alloc/site", 60), EndOp: 60}
	if err := profile.WriteWindows(&windows, []profile.WindowRecord{w}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
		budget     float64
	}{
		{"cached advise", "/v1/advise?arch=Core2", advise, adviseAllocBudget},
		{"one-window ingest", "/v1/profiles?arch=Core2", windows.Bytes(), ingestAllocBudget},
	} {
		// Requests and recorders are built beforehand, so only the
		// handler's own allocations count. The best of three trials is
		// kept: AllocsPerRun counts every goroutine's allocations, and
		// servers other tests left running sample their registries.
		const runs, trials = 200, 3
		reqs := make([]*http.Request, 1+trials*(runs+1))
		recs := make([]*httptest.ResponseRecorder, len(reqs))
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body))
			recs[i] = httptest.NewRecorder()
		}
		n := 0
		serve := func() {
			h.ServeHTTP(recs[n], reqs[n])
			if recs[n].Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, recs[n].Code, recs[n].Body)
			}
			n++
		}
		serve() // warm-up: the advise fills the cache, the ingest opens the timeline
		got := math.Inf(1)
		for i := 0; i < trials; i++ {
			got = min(got, testing.AllocsPerRun(runs, serve))
		}
		t.Logf("%s: %v allocations per request, budget %v", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %v allocations per request, budget %v", tc.name, got, tc.budget)
		}
	}
}
