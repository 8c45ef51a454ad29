package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/serve/flight"
	"repro/internal/workloads/phases"
)

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// TestAdviseJournalsDecisions is the flight-recorder round trip behind
// brainy-explain: a served advise request is queryable by its request ID
// before the response returns, carrying the full provenance of the verdict.
func TestAdviseJournalsDecisions(t *testing.T) {
	s := New(testModels(), quietConfig(Config{}))
	url, _ := startServer(t, s)

	body := traceBody(t, []profile.Profile{vectorProfile("prov/a", 200), vectorProfile("prov/b", 300)})
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/advise?arch=Core2", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "prov-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advise status = %d", resp.StatusCode)
	}

	// The journal is written before the HTTP response completes, so the
	// very next query must see both decisions.
	var dec DecisionsResponse
	getJSON(t, url+decisionsPath+"?format=json&request_id=prov-req-1", &dec)
	if !dec.Enabled || dec.SchemaVersion != 1 {
		t.Fatalf("journal header: %+v", dec)
	}
	if dec.Returned != 2 {
		t.Fatalf("journaled decisions for the request = %d, want 2", dec.Returned)
	}
	contexts := map[string]bool{}
	for _, rec := range dec.Records {
		contexts[rec.Context] = true
		if rec.Source != "advise" || rec.Verdict != "ok" {
			t.Fatalf("record source/verdict: %+v", rec)
		}
		if rec.Path != "cache" && rec.Path != "batch" {
			t.Fatalf("record path %q", rec.Path)
		}
		if rec.Path == "batch" && (rec.BatchID == 0 || rec.BatchSize < 1 || rec.LatencyNs <= 0) {
			t.Fatalf("batch provenance incomplete: %+v", rec)
		}
		if rec.Kind != "vector" || rec.Suggested == "" || len(rec.Probs) == 0 {
			t.Fatalf("verdict provenance incomplete: %+v", rec)
		}
		if rec.Probs[0].Kind != rec.Suggested || rec.Probs[0].Prob != rec.Confidence {
			t.Fatalf("distribution head disagrees with verdict: %+v", rec)
		}
		if len(rec.Digest) != 16 || rec.Registry == "" || len(rec.Features) != profile.NumFeatures {
			t.Fatalf("identity fields incomplete: digest=%q registry=%q features=%d",
				rec.Digest, rec.Registry, len(rec.Features))
		}
	}
	if !contexts["prov/a"] || !contexts["prov/b"] {
		t.Fatalf("journaled contexts: %v", contexts)
	}

	// A repeat of the same trace hits the inference cache; the journal
	// records the hit as its own decision with the cache path.
	req2, _ := http.NewRequest(http.MethodPost, url+"/v1/advise?arch=Core2", bytes.NewReader(body))
	req2.Header.Set("X-Request-ID", "prov-req-2")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	var dec2 DecisionsResponse
	getJSON(t, url+decisionsPath+"?format=json&request_id=prov-req-2", &dec2)
	if dec2.Returned != 2 {
		t.Fatalf("cached decisions journaled = %d, want 2", dec2.Returned)
	}
	for _, rec := range dec2.Records {
		if rec.Path != "cache" {
			t.Fatalf("repeat advise path = %q, want cache: %+v", rec.Path, rec)
		}
	}
}

// TestDecisionsFilters exercises the query surface: every filter narrows the
// journal, bad parameters are rejected, and limit keeps the newest records.
func TestDecisionsFilters(t *testing.T) {
	s := New(testModels(), quietConfig(Config{}))
	url, _ := startServer(t, s)
	body := traceBody(t, []profile.Profile{vectorProfile("f/a", 100), vectorProfile("f/b", 150)})
	if resp, _ := postAdvise(t, url, body, "Core2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("advise status = %d", resp.StatusCode)
	}

	var all DecisionsResponse
	getJSON(t, url+decisionsPath+"?format=json", &all)
	if all.Returned != 2 {
		t.Fatalf("unfiltered journal = %d records, want 2", all.Returned)
	}
	// Records arrive merged in global sequence order.
	if !sort.SliceIsSorted(all.Records, func(i, j int) bool { return all.Records[i].Seq < all.Records[j].Seq }) {
		t.Fatal("journal not in sequence order")
	}

	var byCtx DecisionsResponse
	getJSON(t, url+decisionsPath+"?format=json&context=f%2Fa", &byCtx)
	if byCtx.Returned != 1 || byCtx.Records[0].Context != "f/a" {
		t.Fatalf("context filter: %+v", byCtx)
	}

	var bySource DecisionsResponse
	getJSON(t, url+decisionsPath+"?format=json&source=migration", &bySource)
	if bySource.Returned != 0 {
		t.Fatalf("source filter let %d advise records through", bySource.Returned)
	}

	var limited DecisionsResponse
	getJSON(t, url+decisionsPath+"?format=json&limit=1", &limited)
	if limited.Returned != 1 || limited.Records[0].Seq != all.Records[len(all.Records)-1].Seq {
		t.Fatalf("limit did not keep the newest record: %+v", limited)
	}

	for _, bad := range []string{"?shard=x", "?limit=-1", "?format=xml"} {
		resp, err := http.Get(url + decisionsPath + bad)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestDecisionsDisabled: a negative FlightSize turns the recorder off; the
// endpoint stays mounted and says so, and the advise path never journals.
func TestDecisionsDisabled(t *testing.T) {
	s := New(testModels(), quietConfig(Config{FlightSize: -1}))
	url, _ := startServer(t, s)
	body := traceBody(t, []profile.Profile{vectorProfile("off", 100)})
	if resp, _ := postAdvise(t, url, body, "Core2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("advise status = %d", resp.StatusCode)
	}

	var dec DecisionsResponse
	getJSON(t, url+decisionsPath+"?format=json", &dec)
	if dec.Enabled || dec.Capacity != 0 || dec.Total != 0 || dec.Returned != 0 {
		t.Fatalf("disabled journal: %+v", dec)
	}
	tresp, err := http.Get(url + decisionsPath)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if !strings.Contains(string(text), "flight recorder disabled") {
		t.Fatalf("disabled text page:\n%s", text)
	}
}

// TestDecisionsTextGolden pins the terminal rendering byte-for-byte for a
// hand-built journal covering all three record sources. Regenerate with:
//
//	go test ./internal/serve -run TestDecisionsTextGolden -update-golden
func TestDecisionsTextGolden(t *testing.T) {
	d := DecisionsResponse{
		SchemaVersion: 1,
		Enabled:       true,
		Capacity:      512,
		Total:         9,
		Returned:      4,
		Records: []flight.Record{
			{Seq: 6, Source: "advise", Verdict: "ok", Shard: 0, Path: "batch",
				Context: "loadgen/site1", Kind: "vector", Suggested: "hash_set",
				Confidence: 0.91, LatencyNs: 184_300, BatchID: 3, BatchSize: 4,
				Probs: []flight.KindProb{{Kind: "hash_set", Prob: 0.91}, {Kind: "vector", Prob: 0.05},
					{Kind: "avl_tree", Prob: 0.03}, {Kind: "list", Prob: 0.01}}},
			{Seq: 7, Source: "advise", Verdict: "ok", Shard: 1, Path: "cache",
				Context: "loadgen/site2", Kind: "vector", Suggested: "vector", Confidence: 0.77,
				Probs: []flight.KindProb{{Kind: "vector", Prob: 0.77}, {Kind: "hash_set", Prob: 0.23}}},
			{Seq: 8, Source: "drift", Verdict: "confirmed", Shard: 0,
				Context: "phases/demo", Instance: "phases/demo#0", Kind: "vector",
				Suggested: "hash_set", Confidence: 0.88, WindowSeq: 41, Votes: 2},
			{Seq: 9, Source: "migration", Verdict: "applied", Shard: 0,
				Context: "phases/demo", Instance: "phases/demo#0", Kind: "vector",
				Suggested: "hash_set", Confidence: 0.88, WindowSeq: 41, Votes: 2},
		},
	}
	got := []byte(renderDecisionsText(d))

	goldenPath := filepath.Join("testdata", "decisions.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("decision journal drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRollupReconcilesExactly is the fleet-rollup accounting contract: after
// a fixed ingest-and-advise sequence, /v1/rollup totals equal the
// client-observed counts exactly — no sampling, no drift.
func TestRollupReconcilesExactly(t *testing.T) {
	s := rulesServer(Config{})
	url, _ := startServer(t, s)

	stream := phaseWindowStream(t, 64)
	resp, out := postProfiles(t, url, stream)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profiles status = %d", resp.StatusCode)
	}
	var adviseOps int
	for i := 0; i < 3; i++ {
		body := traceBody(t, []profile.Profile{
			vectorProfile(fmt.Sprintf("roll/%d", i), 100+i),
			vectorProfile(fmt.Sprintf("roll/%d-b", i), 200+i),
		})
		aresp, aout := postAdvise(t, url, body, "Core2")
		if aresp.StatusCode != http.StatusOK {
			t.Fatalf("advise status = %d", aresp.StatusCode)
		}
		adviseOps += len(aout.Suggestions)
	}

	var roll RollupResponse
	getJSON(t, url+"/v1/rollup", &roll)
	if roll.SchemaVersion != 1 || roll.Shards < 1 {
		t.Fatalf("rollup header: %+v", roll)
	}
	if roll.RegistryFingerprint == "" || roll.RegistryFingerprint == "unknown" {
		t.Fatalf("registry fingerprint %q", roll.RegistryFingerprint)
	}
	if roll.Windows != uint64(out.Accepted) {
		t.Fatalf("rollup windows = %d, accepted = %d", roll.Windows, out.Accepted)
	}
	if roll.AdviseDecisions != uint64(adviseOps) {
		t.Fatalf("rollup advise_decisions = %d, client saw %d suggestions", roll.AdviseDecisions, adviseOps)
	}
	if roll.Instances != 1 || roll.DriftEvents != 1 {
		t.Fatalf("rollup instances/drift: %+v", roll)
	}
	if roll.DecisionsJournaled == 0 || roll.DecisionsRetained == 0 {
		t.Fatalf("rollup journal totals: %+v", roll)
	}
	if len(roll.Features) != profile.NumFeatures {
		t.Fatalf("rollup features = %d names", len(roll.Features))
	}

	// Per-kind rows are sorted, sum to the totals, and the phase workload's
	// vector row carries a feature mean and the advised histogram.
	if !sort.SliceIsSorted(roll.Kinds, func(i, j int) bool { return roll.Kinds[i].Kind < roll.Kinds[j].Kind }) {
		t.Fatal("rollup kinds not sorted")
	}
	var windows, advise uint64
	var vecRow *RollupKind
	for i := range roll.Kinds {
		windows += roll.Kinds[i].Windows
		advise += roll.Kinds[i].AdviseDecisions
		if roll.Kinds[i].Kind == "vector" {
			vecRow = &roll.Kinds[i]
		}
	}
	if windows != roll.Windows || advise != roll.AdviseDecisions {
		t.Fatalf("per-kind rows do not sum to totals: %d/%d windows, %d/%d advise",
			windows, roll.Windows, advise, roll.AdviseDecisions)
	}
	if vecRow == nil {
		t.Fatal("no vector row")
	}
	if len(vecRow.FeatureMean) != profile.NumFeatures || vecRow.HW.Cycles <= 0 || vecRow.Ops == 0 {
		t.Fatalf("vector row aggregates: %+v", vecRow)
	}
	var advisedTotal uint64
	for _, n := range vecRow.Advised {
		advisedTotal += n
	}
	if advisedTotal != vecRow.AdviseDecisions {
		t.Fatalf("advised histogram sums to %d, row has %d decisions", advisedTotal, vecRow.AdviseDecisions)
	}

	// POST is rejected: the rollup is a read-only scrape target.
	presp, err := http.Post(url+"/v1/rollup", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/rollup = %d", presp.StatusCode)
	}
}

// TestAdviseExplainOptIn: the class distribution rides the response only
// when the client asks for it, and stripping it does not disturb the
// suggestions themselves.
func TestAdviseExplainOptIn(t *testing.T) {
	s := New(testModels(), quietConfig(Config{}))
	url, _ := startServer(t, s)
	body := traceBody(t, []profile.Profile{vectorProfile("exp", 120)})

	_, plain := postAdvise(t, url, body, "Core2")
	if len(plain.Suggestions) != 1 || plain.Suggestions[0].Explanation != nil {
		t.Fatalf("default response leaked an explanation: %+v", plain.Suggestions)
	}

	resp, err := http.Post(url+"/v1/advise?arch=Core2&explain=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var explained AdviseResponse
	if err := json.NewDecoder(resp.Body).Decode(&explained); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(explained.Suggestions) != 1 {
		t.Fatalf("suggestions = %d", len(explained.Suggestions))
	}
	sug := explained.Suggestions[0]
	if sug.Explanation == nil || len(sug.Explanation.Probs) < 2 {
		t.Fatalf("no class distribution with explain=1: %+v", sug)
	}
	var sum float64
	for _, kp := range sug.Explanation.Probs {
		sum += kp.Prob
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("distribution sums to %g", sum)
	}
	if sug.Explanation.Probs[0].Kind != sug.Suggested || sug.Explanation.Probs[0].Prob != sug.Confidence {
		t.Fatalf("distribution head disagrees with the verdict: %+v", sug)
	}
	if sug.Context != plain.Suggestions[0].Context || sug.Suggested != plain.Suggestions[0].Suggested {
		t.Fatalf("explain changed the verdict: %+v vs %+v", sug, plain.Suggestions[0])
	}
}

// TestDashboardJSONSchemaV2 locks the brainy-top contract: schema version 2,
// rows sorted by instance key, and a monotone touch stamp for recency sorts.
func TestDashboardJSONSchemaV2(t *testing.T) {
	s := rulesServer(Config{})
	url, _ := startServer(t, s)
	for _, inst := range []string{"2", "0", "1"} {
		w := `{"context":"schema/site","kind":0,"instance":` + inst +
			`,"window_seq":0,"window_start_op":0,"window_end_op":8,"stats":{"count":[0,0,0,0,8,0,0,0,0,0]}}` + "\n"
		if resp, _ := postProfiles(t, url, []byte(w)); resp.StatusCode != http.StatusOK {
			t.Fatalf("instance %s: status = %d", inst, resp.StatusCode)
		}
	}

	var dash DashboardResponse
	getJSON(t, url+debugBrainyPath+"?format=json", &dash)
	if dash.SchemaVersion != 2 {
		t.Fatalf("schema_version = %d, want 2", dash.SchemaVersion)
	}
	if len(dash.Rows) != 3 {
		t.Fatalf("rows = %d", len(dash.Rows))
	}
	if !sort.SliceIsSorted(dash.Rows, func(i, j int) bool { return dash.Rows[i].Key < dash.Rows[j].Key }) {
		t.Fatalf("rows not key-sorted: %v", []string{dash.Rows[0].Key, dash.Rows[1].Key, dash.Rows[2].Key})
	}
	// Touch reflects ingest order (2, 0, 1), not key order.
	byKey := map[string]uint64{}
	for _, row := range dash.Rows {
		if row.Touch == 0 {
			t.Fatalf("row %s has no touch stamp", row.Key)
		}
		byKey[row.Key] = row.Touch
	}
	if !(byKey["schema/site#2"] < byKey["schema/site#0"] && byKey["schema/site#0"] < byKey["schema/site#1"]) {
		t.Fatalf("touch stamps do not follow ingest order: %v", byKey)
	}
}

// TestBuildInfoAndUptime: the identity metrics satellite — one build-info
// gauge carrying the registry fingerprint and a moving uptime gauge.
func TestBuildInfoAndUptime(t *testing.T) {
	s := New(testModels(), quietConfig(Config{}))
	url, _ := startServer(t, s)

	scrape := func() string {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		page, _ := io.ReadAll(resp.Body)
		return string(page)
	}
	page := scrape()
	var buildLine string
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "brainy_build_info{") {
			buildLine = line
		}
	}
	if buildLine == "" {
		t.Fatalf("no brainy_build_info sample:\n%s", page)
	}
	for _, want := range []string{`go_version="go`, `registry_fingerprint="`, "} 1"} {
		if !strings.Contains(buildLine, want) {
			t.Fatalf("build info line missing %q: %s", want, buildLine)
		}
	}
	// The fingerprint matches what /v1/rollup reports: both identify the
	// same loaded registry.
	var roll RollupResponse
	getJSON(t, url+"/v1/rollup", &roll)
	if !strings.Contains(buildLine, `registry_fingerprint="`+roll.RegistryFingerprint+`"`) {
		t.Fatalf("fingerprint mismatch: metrics %s, rollup %s", buildLine, roll.RegistryFingerprint)
	}
	if !strings.Contains(page, "brainy_uptime_seconds") {
		t.Fatalf("no uptime gauge:\n%s", page)
	}
	time.Sleep(20 * time.Millisecond)
	read := func(page string) float64 {
		for _, line := range strings.Split(page, "\n") {
			if strings.HasPrefix(line, "brainy_uptime_seconds ") {
				var v float64
				fmt.Sscanf(line, "brainy_uptime_seconds %g", &v)
				return v
			}
		}
		t.Fatal("no uptime sample")
		return 0
	}
	if a, b := read(page), read(scrape()); b <= a {
		t.Fatalf("uptime did not advance: %g then %g", a, b)
	}
}

// TestAdviseExemplarOnLatencyHistogram: served advise requests stamp their
// request ID on the latency bucket they land in — the /metrics half of the
// exemplar link brainy-top and loadgen consume.
func TestAdviseExemplarOnLatencyHistogram(t *testing.T) {
	s := New(testModels(), quietConfig(Config{}))
	url, _ := startServer(t, s)
	body := traceBody(t, []profile.Profile{vectorProfile("exemplar", 140)})
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/advise?arch=Core2", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "exemplar-req-9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(page), `# {request_id="exemplar-req-9"}`) {
		t.Fatalf("advise request ID not stamped as an exemplar:\n%s", page)
	}
	// The /metrics request itself must not stamp exemplars: only advise
	// traffic is worth tracing back.
	count := strings.Count(string(page), "# {request_id=")
	if count != 1 {
		t.Fatalf("exemplar stamped on non-advise traffic: %d exemplars\n%s", count, page)
	}
}

// TestDecisionJournalConcurrent hammers the journal from every side at once
// — advises, scrapes, rollups — so the race detector can prove the
// flight-recorder locking. Run with -race (the CI race job does).
func TestDecisionJournalConcurrent(t *testing.T) {
	s := New(testModels(), quietConfig(Config{FlightSize: 16})) // tiny ring: force overwrites
	url, _ := startServer(t, s)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := traceBody(t, []profile.Profile{vectorProfile(fmt.Sprintf("conc/%d-%d", g, i), 100+g*20+i)})
				resp, err := http.Post(url+"/v1/advise?arch=Core2", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, path := range []string{decisionsPath + "?format=json", "/v1/rollup"} {
					resp, err := http.Get(url + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	var dec DecisionsResponse
	getJSON(t, url+decisionsPath+"?format=json", &dec)
	if dec.Total != 80 {
		t.Fatalf("journaled %d decisions, want 80", dec.Total)
	}
	for _, rec := range dec.Records {
		if rec.Source != "advise" || rec.Seq == 0 || len(rec.Probs) == 0 {
			t.Fatalf("torn record under concurrency: %+v", rec)
		}
	}
}

// TestRecordAdviseDisabledZeroAlloc proves the recording-off fast path: with
// the flight recorder disabled the journaling hook is a nil-check and
// nothing more — zero allocations on the advise hot path.
func TestRecordAdviseDisabledZeroAlloc(t *testing.T) {
	s := New(testModels(), quietConfig(Config{FlightSize: -1}))
	sh := s.shards[0]
	if sh.flight != nil {
		t.Fatal("flight ring allocated despite negative FlightSize")
	}
	p := vectorProfile("alloc", 100)
	sug := core.Suggestion{Context: "alloc"}
	vec := p.Vector()
	var key cacheKey
	allocs := testing.AllocsPerRun(1000, func() {
		sh.recordAdvise(&p, vec, "Core2", key, sug, nil, "req", "batch", 1, 4, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled recordAdvise allocates %g per call, want 0", allocs)
	}
}

// TestDriftEventsJournaled: the ingest path journals confirmed drift as its
// own record source, linked to the instance and trigger window.
func TestDriftEventsJournaled(t *testing.T) {
	s := rulesServer(Config{})
	url, _ := startServer(t, s)
	if resp, _ := postProfiles(t, url, phaseWindowStream(t, 64)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	var dec DecisionsResponse
	getJSON(t, url+decisionsPath+"?format=json&source=drift", &dec)
	if dec.Returned != 1 {
		t.Fatalf("drift records journaled = %d, want 1", dec.Returned)
	}
	rec := dec.Records[0]
	if rec.Verdict != "confirmed" || rec.Instance != phases.Context+"#0" {
		t.Fatalf("drift record: %+v", rec)
	}
	if rec.Kind != "vector" || rec.Suggested != "hash_set" || rec.Votes < 1 || rec.WindowSeq == 0 {
		t.Fatalf("drift provenance incomplete: %+v", rec)
	}
	if len(rec.Features) != profile.NumFeatures {
		t.Fatalf("drift record features = %d", len(rec.Features))
	}
}
