package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/drift"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/workloads/phases"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the dashboard golden file in testdata/")

// phaseWindowStream renders the canonical two-phase workload as a snapshot
// window stream — the same bytes examples/phasedemo -o writes and the CI
// smoke POSTs. Fully deterministic: fixed workload, simulated counters.
func phaseWindowStream(t *testing.T, window int) []byte {
	t.Helper()
	m := machine.New(machine.Core2())
	var buf bytes.Buffer
	exp := profile.NewSnapshotExporter(&buf)
	reg := profile.NewRegistry(m)
	reg.EnableWindows(window, exp)
	c := reg.NewContainer(phases.Original, 8, phases.Context, false)
	phases.Drive(c, phases.Config{})
	reg.FlushWindows()
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func rulesServer(cfg Config) *Server {
	cfg.DriftRules = true
	cfg.DriftWindow = 2
	cfg.DriftHysteresis = 2
	return New(testModels(), quietConfig(cfg))
}

func postProfiles(t *testing.T, url string, body []byte) (*http.Response, ProfilesResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/profiles?arch=Core2", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ProfilesResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding profiles response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, out
}

// TestProfilesIngestAndDrift is the end-to-end ingestion contract: the
// phasedemo stream lands in one timeline, the drift detector flags the
// vector -> hash_set phase change, and every ingestion metric moves.
func TestProfilesIngestAndDrift(t *testing.T) {
	s := rulesServer(Config{})
	url, _ := startServer(t, s)
	stream := phaseWindowStream(t, 64)

	resp, out := postProfiles(t, url, stream)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profiles status = %d", resp.StatusCode)
	}
	wantWindows := len(bytes.Split(bytes.TrimSpace(stream), []byte("\n")))
	if out.Accepted != wantWindows {
		t.Fatalf("accepted %d of %d windows", out.Accepted, wantWindows)
	}
	if out.Instances != 1 || out.OutOfOrder != 0 || out.Unadvised != 0 {
		t.Fatalf("ingestion accounting: %+v", out)
	}
	if len(out.Drift) != 1 {
		t.Fatalf("drift events in batch: %d, want 1", len(out.Drift))
	}
	ev := out.Drift[0]
	if ev.InstanceKey != phases.Context+"#0" || ev.From.String() != "vector" || ev.To.String() != "hash_set" {
		t.Fatalf("drift event: %+v", ev)
	}

	m := s.Metrics()
	if got := m.ProfileWindows.Value(); got != uint64(wantWindows) {
		t.Fatalf("brainy_profile_windows_total = %d", got)
	}
	if got := m.DriftEvents.Value(); got != 1 {
		t.Fatalf("brainy_drift_events_total = %d", got)
	}
	// The window-size histogram saw every window; its exact extremes are
	// the full window size and the flushed tail.
	hs := m.WindowOps.Snapshot()
	if hs.Count != uint64(wantWindows) || hs.Max != 64 || hs.Min <= 0 || hs.Min > 64 {
		t.Fatalf("window-size histogram: count=%d min=%g max=%g", hs.Count, hs.Min, hs.Max)
	}
	if got := m.TimelineInstances.Value(); got != 1 {
		t.Fatalf("brainy_profile_instances = %g", got)
	}

	// The same counters appear on the exposition page, min/max included.
	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"brainy_drift_events_total 1",
		"brainy_profile_window_ops_max 64",
		"brainy_profile_instances 1",
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("metrics page missing %q:\n%s", want, page)
		}
	}
}

// TestProfilesStateAccumulatesAcrossRequests: a live application POSTs its
// windows in batches; drift confirmation must work across request
// boundaries exactly as it does within one.
func TestProfilesStateAccumulatesAcrossRequests(t *testing.T) {
	s := rulesServer(Config{})
	url, _ := startServer(t, s)
	lines := bytes.SplitAfter(bytes.TrimSpace(phaseWindowStream(t, 64)), []byte("\n"))

	var events int
	for _, ln := range lines { // one POST per window: the extreme case
		resp, out := postProfiles(t, url, ln)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		events += len(out.Drift)
	}
	if events != 1 {
		t.Fatalf("drift events across batched ingestion: %d, want 1", events)
	}
	if got := s.Metrics().DriftEvents.Value(); got != 1 {
		t.Fatalf("counter = %d", got)
	}
}

func TestProfilesValidation(t *testing.T) {
	s := rulesServer(Config{MaxProfiles: 5})
	url, _ := startServer(t, s)

	resp, err := http.Get(url + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d", resp.StatusCode)
	}

	for name, body := range map[string]string{
		"empty":     "",
		"garbage":   "not json at all",
		"truncated": `{"context":"a","kind":0,"window_seq":0`, /* no closing brace */
	} {
		resp, _ := postProfiles(t, url, []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s body: status = %d, want 400", name, resp.StatusCode)
		}
	}

	// Record bound: the stream has far more than 5 windows.
	resp2, _ := postProfiles(t, url, phaseWindowStream(t, 16))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-bound batch: status = %d, want 400", resp2.StatusCode)
	}
}

// TestProfilesBodyAndRecordCaps is TestAdviseRejections' cap precedence
// on the ingest path: a body past the byte cap whose first MaxProfiles+1
// windows fit under it answers the record bound's 400, and a window cut by
// the byte cap answers 413.
func TestProfilesBodyAndRecordCaps(t *testing.T) {
	s := rulesServer(Config{MaxBodyBytes: 512, MaxProfiles: 1})
	url, _ := startServer(t, s)
	window := `{"context":"caps/site","kind":0,"instance":0,"window_seq":0,"window_end_op":4}` + "\n"
	post := func(body string) (int, string) {
		resp, err := http.Post(url+"/v1/profiles?arch=Core2", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	if code, msg := post(strings.Repeat(window, 20)); code != http.StatusBadRequest || !strings.Contains(msg, "batch exceeds 1 records") {
		t.Fatalf("windows past both caps: %d %s, want 400 batch exceeds", code, msg)
	}
	huge := `{"context":"` + strings.Repeat("a", 1024) + `"}`
	if code, msg := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("window cut by the byte cap: %d %s, want 413", code, msg)
	}
}

// TestTimelineLRUBound: the instance store caps memory by evicting the
// least recently touched timeline, and the eviction is visible in metrics
// and absent from the dashboard. Shards is pinned to 1 so the global bound
// is exact — with N shards each holds ceil(max/N) and eviction order is
// per-shard.
func TestTimelineLRUBound(t *testing.T) {
	s := rulesServer(Config{MaxInstances: 2, TimelineWindows: 4, Shards: 1})
	url, _ := startServer(t, s)

	for _, inst := range []string{"0", "1", "2"} {
		w := `{"context":"many/instances","kind":0,"instance":` + inst +
			`,"window_seq":0,"window_start_op":0,"window_end_op":8,"stats":{"count":[0,0,0,0,8,0,0,0,0,0]}}` + "\n"
		if resp, _ := postProfiles(t, url, []byte(w)); resp.StatusCode != http.StatusOK {
			t.Fatalf("instance %s: status = %d", inst, resp.StatusCode)
		}
	}
	if got := s.Metrics().TimelineInstances.Value(); got != 2 {
		t.Fatalf("retained timelines = %v, want 2", got)
	}
	if got := s.Metrics().TimelineEvictions.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	var dash DashboardResponse
	dresp, err := http.Get(url + debugBrainyPath + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dash); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	keys := map[string]bool{}
	for _, row := range dash.Rows {
		keys[row.Key] = true
	}
	if keys["many/instances#0"] || !keys["many/instances#1"] || !keys["many/instances#2"] {
		t.Fatalf("LRU kept the wrong timelines: %v", keys)
	}
}

// TestIngestDriftMatchesDetector: the drift state each timeline keeps
// gives the answers a drift.Detector gives for the same windows in the same
// order, whatever the shard count and timeline ring size: every reply's
// events, and every dashboard row's advice. The windows come from twelve
// phases instances at six window sizes, posted four at a time and
// interleaved across instances; every third instance has its cycles scaled
// to fractional values, and every fourth migrates to hash_set halfway.
func TestIngestDriftMatchesDetector(t *testing.T) {
	var streams [][]profile.WindowRecord
	for i := 0; i < 12; i++ {
		recs, err := profile.ReadWindows(bytes.NewReader(phaseWindowStream(t, []int{16, 24, 32, 48, 64, 96}[i%6])))
		if err != nil {
			t.Fatal(err)
		}
		for j := range recs {
			recs[j].Instance = i
			if i%3 == 1 {
				recs[j].Cycles *= 1.37
			}
			if i%4 == 3 && j >= len(recs)/2 {
				recs[j].Kind = adt.KindHashSet
			}
		}
		streams = append(streams, recs)
	}
	var batches [][]profile.WindowRecord
	for off, more := 0, true; more; off += 4 {
		more = false
		for _, recs := range streams {
			if off < len(recs) {
				batches = append(batches, recs[off:min(off+4, len(recs))])
				more = true
			}
		}
	}

	for _, shards := range []int{1, 4} {
		for _, windows := range []int{4, 32} {
			t.Run(fmt.Sprintf("shards=%d/windows=%d", shards, windows), func(t *testing.T) {
				s := rulesServer(Config{Shards: shards, TimelineWindows: windows})
				t.Cleanup(s.Close)
				h := s.Handler()
				det := drift.New(drift.Rules, drift.Config{Window: 2, Hysteresis: 2})
				events := 0
				for n, batch := range batches {
					var body bytes.Buffer
					if err := profile.WriteWindows(&body, batch); err != nil {
						t.Fatal(err)
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/profiles?arch=Core2", &body))
					var got ProfilesResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
						t.Fatalf("batch %d: status %d (%v): %s", n, rec.Code, err, rec.Body)
					}
					want := []drift.Event{}
					for i := range batch {
						ev, err := det.Observe(&batch[i], "Core2")
						if err != nil {
							t.Fatal(err)
						}
						if ev != nil {
							want = append(want, *ev)
						}
					}
					if !reflect.DeepEqual(got.Drift, want) {
						t.Fatalf("batch %d: reply events %+v, detector %+v", n, got.Drift, want)
					}
					events += len(want)
				}
				if events == 0 {
					t.Fatal("no drift event to compare")
				}

				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, debugBrainyPath+"?format=json", nil))
				var dash DashboardResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &dash); err != nil {
					t.Fatal(err)
				}
				sts := det.Statuses()
				if len(dash.Rows) != len(sts) {
					t.Fatalf("dashboard has %d rows, detector %d instances", len(dash.Rows), len(sts))
				}
				for i, st := range sts {
					row := dash.Rows[i] // both sorted by instance key
					want := DashboardRow{Key: st.InstanceKey, Kind: st.Kind.String(), Windows: st.Windows, Ops: st.Ops,
						Advised: st.Advised, Initial: st.Initial.String(), Current: st.Current.String(),
						Confidence: st.Confidence, Drifted: st.Drifted(), Events: st.Events}
					got := DashboardRow{Key: row.Key, Kind: row.Kind, Windows: row.Windows, Ops: row.Ops,
						Advised: row.Advised, Initial: row.Initial, Current: row.Current,
						Confidence: row.Confidence, Drifted: row.Drifted, Events: row.Events}
					if !st.Advised {
						want.Initial, want.Current = "", ""
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("row %s: dashboard %+v, detector %+v", st.InstanceKey, got, want)
					}
				}
			})
		}
	}
}

// TestDriftStateBoundedByTimelineLRU: an instance's drift state lives in
// its timeline, so evicting the timeline drops it, and the instance's next
// window starts from a clean state instead of the one it left.
func TestDriftStateBoundedByTimelineLRU(t *testing.T) {
	s := rulesServer(Config{MaxInstances: 4, TimelineWindows: 4, Shards: 1})
	url, _ := startServer(t, s)
	key := phases.Context + "#0"
	row := func() (DashboardRow, bool) {
		var dash DashboardResponse
		getJSON(t, url+debugBrainyPath+"?format=json", &dash)
		for _, r := range dash.Rows {
			if r.Key == key {
				return r, true
			}
		}
		return DashboardRow{}, false
	}
	stream := phaseWindowStream(t, 64)
	if resp, out := postProfiles(t, url, stream); resp.StatusCode != http.StatusOK || len(out.Drift) != 1 {
		t.Fatalf("phase stream: status %d, %d drift events", resp.StatusCode, len(out.Drift))
	}
	if r, ok := row(); !ok || r.Events != 1 || r.Windows < 2 {
		t.Fatalf("before eviction: %+v (retained %v)", r, ok)
	}
	for i := 0; i < 4; i++ {
		w := fmt.Sprintf(`{"context":"many/instances","kind":0,"instance":%d,"window_seq":0,"window_start_op":0,"window_end_op":8,"stats":{"count":[0,0,0,0,8,0,0,0,0,0]}}`+"\n", i)
		if resp, _ := postProfiles(t, url, []byte(w)); resp.StatusCode != http.StatusOK {
			t.Fatalf("instance %d: status = %d", i, resp.StatusCode)
		}
	}
	if r, ok := row(); ok {
		t.Fatalf("timeline outlived the LRU bound: %+v", r)
	}
	firstWindow, _, _ := bytes.Cut(stream, []byte("\n"))
	if resp, _ := postProfiles(t, url, firstWindow); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-ingest: status = %d", resp.StatusCode)
	}
	if r, ok := row(); !ok || r.Windows != 1 || r.Events != 0 || r.Drifted {
		t.Fatalf("evicted instance did not start clean: %+v (retained %v)", r, ok)
	}
}

func TestProfilesOutOfOrderCounted(t *testing.T) {
	s := rulesServer(Config{})
	url, _ := startServer(t, s)
	w := `{"context":"ooo","kind":0,"instance":0,"window_seq":3,"window_start_op":0,"window_end_op":8}` + "\n"
	postProfiles(t, url, []byte(w))
	_, out := postProfiles(t, url, []byte(w)) // same seq again: a replay
	if out.OutOfOrder != 1 {
		t.Fatalf("out_of_order = %d, want 1", out.OutOfOrder)
	}
	if got := s.Metrics().WindowsOutOfOrder.Value(); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
}

// TestProfilesSkippedWindowsCounted: a window whose kind has no trained
// model still lands in its timeline, but the lost advisory coverage must be
// visible — in the response, on /metrics, and on the dashboard header.
func TestProfilesSkippedWindowsCounted(t *testing.T) {
	// Model-backed server with only a vector model: list windows cannot be
	// advised.
	s := New(testModels(), quietConfig(Config{}))
	url, _ := startServer(t, s)
	w := `{"context":"skip","kind":1,"instance":0,"window_seq":0,"window_start_op":0,"window_end_op":8,"stats":{"count":[0,0,0,0,8,0,0,0,0,0]}}` + "\n"
	resp, out := postProfiles(t, url, []byte(w))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Accepted != 1 || out.Unadvised != 1 {
		t.Fatalf("accounting: %+v", out)
	}
	if got := s.Metrics().DriftSkipped.Value(); got != 1 {
		t.Fatalf("brainy_drift_skipped_windows_total = %d, want 1", got)
	}
	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(page), "brainy_drift_skipped_windows_total 1") {
		t.Fatalf("metrics page missing skip counter:\n%s", page)
	}
	dresp, err := http.Get(url + debugBrainyPath)
	if err != nil {
		t.Fatal(err)
	}
	dash, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if !strings.Contains(string(dash), "drift-skipped 1") {
		t.Fatalf("dashboard missing drift-skipped count:\n%s", dash)
	}
}

// TestDashboardGolden pins the text dashboard byte-for-byte for a fixed
// ingestion sequence. Regenerate with:
//
//	go test ./internal/serve -run TestDashboardGolden -update-golden
func TestDashboardGolden(t *testing.T) {
	s := rulesServer(Config{})
	url, _ := startServer(t, s)
	if resp, _ := postProfiles(t, url, phaseWindowStream(t, 64)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	dresp, err := http.Get(url + debugBrainyPath)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if ct := dresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	goldenPath := filepath.Join("testdata", "dashboard.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("dashboard drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestDashboardFormats: the JSON variant feeds brainy-top, the HTML variant
// renders for browsers, and unknown formats are rejected.
func TestDashboardFormats(t *testing.T) {
	s := rulesServer(Config{})
	url, _ := startServer(t, s)
	postProfiles(t, url, phaseWindowStream(t, 64))

	var dash DashboardResponse
	jresp, err := http.Get(url + debugBrainyPath + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(jresp.Body).Decode(&dash); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if dash.Instances != 1 || len(dash.Rows) != 1 {
		t.Fatalf("dashboard instances: %+v", dash)
	}
	row := dash.Rows[0]
	if row.Key != phases.Context+"#0" || !row.Advised || !row.Drifted {
		t.Fatalf("row: %+v", row)
	}
	if row.Initial != "vector" || row.Current != "hash_set" {
		t.Fatalf("advice %s -> %s", row.Initial, row.Current)
	}
	if len(row.Timeline) == 0 || len(row.Mix) != len(row.Timeline) {
		t.Fatalf("timeline/mix: %d cells, mix %q", len(row.Timeline), row.Mix)
	}
	// The mix string itself shows the phase change: appends then finds.
	if !strings.Contains(row.Mix, "a") || !strings.Contains(row.Mix, "f") ||
		strings.LastIndex(row.Mix, "a") > strings.Index(row.Mix, "f") {
		t.Fatalf("mix %q does not read as a phase change", row.Mix)
	}

	hresp, err := http.Get(url + debugBrainyPath + "?format=html")
	if err != nil {
		t.Fatal(err)
	}
	html, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(html), "<table>") || !strings.Contains(string(html), phases.Context) {
		t.Fatalf("html dashboard: %s", html)
	}

	bresp, err := http.Get(url + debugBrainyPath + "?format=gopher")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: %d", bresp.StatusCode)
	}
}

// TestDashboardEmpty renders the no-data page without errors.
func TestDashboardEmpty(t *testing.T) {
	s := rulesServer(Config{})
	url, _ := startServer(t, s)
	resp, err := http.Get(url + debugBrainyPath)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "no instance timelines yet") {
		t.Fatalf("empty dashboard: %s", body)
	}
}
