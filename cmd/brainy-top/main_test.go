package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

func TestFetchAndRender(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/brainy" || r.URL.Query().Get("format") != "json" {
			http.Error(w, "wrong path", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{
			"instances": 1, "max_instances": 256, "windows": 21,
			"drift_events": 1, "out_of_order": 0,
			"rows": [{
				"key": "phasedemo/working-set#0", "context": "phasedemo/working-set",
				"instance": 0, "kind": "vector", "windows": 21, "ops": 1312,
				"advised": true, "initial": "vector", "current": "hash_set",
				"confidence": 1, "drifted": true, "events": 1,
				"mix": "aaaafffff", "timeline": []
			}]
		}`))
	}))
	defer srv.Close()

	d, err := fetchDashboard(srv.Client(), srv.URL+"/debug/brainy?format=json")
	if err != nil {
		t.Fatal(err)
	}
	out := render(d, srv.URL)
	for _, want := range []string{
		"brainy-top — " + srv.URL,
		"instances 1/256  windows 21  drift-events 1  out-of-order 0",
		"phasedemo/working-set#0",
		"vector -> hash_set",
		"DRIFT1",
		"aaaafffff",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestFetchDashboardErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no dashboard here", http.StatusNotFound)
	}))
	defer srv.Close()
	if _, err := fetchDashboard(srv.Client(), srv.URL+"/debug/brainy?format=json"); err == nil {
		t.Fatal("expected error on 404")
	} else if !strings.Contains(err.Error(), "no dashboard here") {
		t.Errorf("error should carry the body, got: %v", err)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{not json"))
	}))
	defer bad.Close()
	if _, err := fetchDashboard(bad.Client(), bad.URL+"/x"); err == nil {
		t.Fatal("expected error on malformed JSON")
	}

	srv.Close()
	if _, err := fetchDashboard(srv.Client(), srv.URL+"/x"); err == nil {
		t.Fatal("expected error when the service is down")
	}
}

func TestRenderEmpty(t *testing.T) {
	out := render(&serve.DashboardResponse{MaxInstances: 16, Rows: nil}, "http://x")
	if !strings.Contains(out, "no instance timelines yet") {
		t.Errorf("empty dashboard should say so:\n%s", out)
	}
}

// TestRenderSortsByTouch: the JSON dashboard arrives key-sorted; the live
// view re-sorts on the touch stamp so recent activity floats to the top.
func TestRenderSortsByTouch(t *testing.T) {
	d := &serve.DashboardResponse{
		Instances: 2, MaxInstances: 16,
		Rows: []serve.DashboardRow{
			{Key: "a#0", Kind: "vector", Touch: 1, Mix: "aa"},
			{Key: "b#0", Kind: "vector", Touch: 9, Mix: "ff"},
		},
	}
	out := render(d, "http://x")
	if strings.Index(out, "b#0") > strings.Index(out, "a#0") {
		t.Errorf("most recently touched row should render first:\n%s", out)
	}
}

// TestRenderExemplars covers the slow-request pane: slowest bucket first,
// absent entirely when the scrape yields nothing.
func TestRenderExemplars(t *testing.T) {
	if out := renderExemplars(nil); out != "" {
		t.Errorf("no exemplars should render nothing, got %q", out)
	}
	out := renderExemplars([]telemetry.BucketExemplar{
		{LE: "0.005", RequestID: "req-fast", Value: 0.004},
		{LE: "0.1", RequestID: "req-slow", Value: 0.09},
	})
	for _, want := range []string{"brainy-explain", "req-slow", "req-fast", "90.00ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("exemplar pane missing %q in:\n%s", want, out)
		}
	}
	if strings.Index(out, "req-slow") > strings.Index(out, "req-fast") {
		t.Errorf("slowest exemplar should render first:\n%s", out)
	}
}

// TestFetchExemplarsFromMetrics reads exemplars from the JSON view of the
// server's own metric set.
func TestFetchExemplarsFromMetrics(t *testing.T) {
	m := serve.NewMetrics()
	m.Latency.Observe(0.2)
	m.Latency.ObserveExemplar(0.0041, "abc123")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.Error(w, "wrong path", http.StatusNotFound)
			return
		}
		m.ServeHTTP(w, r)
	}))
	defer srv.Close()
	exs := fetchExemplars(srv.Client(), srv.URL)
	if len(exs) != 1 || exs[0].RequestID != "abc123" || exs[0].LE != "0.005" || exs[0].Value != 0.0041 {
		t.Fatalf("exemplars: %+v", exs)
	}
	// Best-effort contract: a down or 404 service yields no pane, no error.
	if exs := fetchExemplars(srv.Client(), srv.URL+"/nope"); exs != nil {
		t.Fatalf("404 scrape should yield nil, got %+v", exs)
	}
}
