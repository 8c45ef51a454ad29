package telemetry

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestRegistryGoldenExposition locks the full exposition page for one
// exercised registry: sorted one-pass rendering, HELP/TYPE metadata for
// every metric, histogram +Inf/_sum/_count lines, and HELP escaping.
func TestRegistryGoldenExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	fc := r.FloatCounter("test_cycles_total", "Simulated cycles.")
	v := r.CounterVec("test_requests_total", "Requests by path.")
	g := r.Gauge("test_inflight", "In-flight requests.")
	h := r.Histogram("test_latency_seconds", `Latency with \ and
newline.`, 0.1, 1)

	c.Add(3)
	fc.Add(2.5)
	v.With(`path="/a"`).Inc()
	v.With(`path="<other>"`).Add(2)
	g.Set(4)
	g.Dec()
	h.Observe(0.05) // first bucket
	h.Observe(0.5)  // second bucket
	h.Observe(30)   // +Inf overflow

	const want = `# HELP test_cycles_total Simulated cycles.
# TYPE test_cycles_total counter
test_cycles_total 2.5
# HELP test_inflight In-flight requests.
# TYPE test_inflight gauge
test_inflight 3
# HELP test_latency_seconds Latency with \\ and\nnewline.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 30.55
test_latency_seconds_count 3
test_latency_seconds_min 0.05
test_latency_seconds_max 30
# HELP test_ops_total Operations.
# TYPE test_ops_total counter
test_ops_total 3
# HELP test_requests_total Requests by path.
# TYPE test_requests_total counter
test_requests_total{path="/a"} 1
test_requests_total{path="<other>"} 2
`
	var b1, b2 strings.Builder
	r.Expose(&b1)
	if b1.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b1.String(), want)
	}
	// Byte-stable across renders of the same state.
	r.Expose(&b2)
	if b1.String() != b2.String() {
		t.Fatalf("exposition not byte-stable:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}

// Line grammars of the text exposition format, enough to catch malformed
// output: every line must be a HELP line, a TYPE line, or a sample.
var (
	helpLine   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeLine   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[-+0-9].*)$`)
)

// ValidateExposition parses one exposition page line by line, additionally
// checking that each metric's TYPE immediately follows its HELP and that
// histograms end with the +Inf bucket, _sum, and _count.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpLine.MatchString(line) {
				t.Fatalf("malformed HELP line %d: %q", i, line)
			}
			name := strings.Fields(line)[2]
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Fatalf("HELP for %s not followed by its TYPE at line %d", name, i)
			}
		case strings.HasPrefix(line, "# TYPE "):
			if !typeLine.MatchString(line) {
				t.Fatalf("malformed TYPE line %d: %q", i, line)
			}
			if strings.HasSuffix(line, " histogram") {
				name := strings.Fields(line)[2]
				rest := strings.Join(lines[i+1:], "\n")
				for _, want := range []string{name + `_bucket{le="+Inf"}`, name + "_sum ", name + "_count "} {
					if !strings.Contains(rest, want) {
						t.Fatalf("histogram %s missing %q", name, want)
					}
				}
			}
		default:
			if !sampleLine.MatchString(line) {
				t.Fatalf("malformed sample line %d: %q", i, line)
			}
		}
	}
}

func TestRegistryExpositionIsWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.").Inc()
	r.Gauge("b", "B.").Set(-1.5)
	r.Histogram("c_seconds", "C.").Observe(10)
	v := r.CounterVec("d_total", "D with \"quotes\".")
	v.With(`path="/x",code="200"`).Inc()
	var b strings.Builder
	r.Expose(&b)
	validateExposition(t, b.String())
}

func TestRegistryRegisterOnce(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	mustPanic(t, "duplicate name", func() { r.Gauge("dup_total", "second") })
	mustPanic(t, "invalid name", func() { r.Counter("bad name", "oops") })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestRegistrySamples covers the registry's one read: typed, name-sorted
// samples with labelled families expanded per child, info metrics as a
// labelled constant gauge, and histograms carrying full snapshots.
func TestRegistrySamples(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("zz_total", "")
	c.Add(3)
	g := r.Gauge("aa_gauge", "")
	g.Set(1.5)
	r.GaugeFunc("fn_gauge", "", func() float64 { return 2.5 })
	fc := r.FloatCounter("float_total", "")
	fc.Add(0.25)
	v := r.CounterVec("req_total", "")
	v.With(`path="/b"`).Add(2)
	v.With(`path="/a"`).Inc()
	h := r.Histogram("lat_seconds", "", 1, 2)
	h.Observe(0.5)
	h.Observe(3)
	r.Info("build_info", "", `version="v1"`)

	got := r.Samples()
	wantNames := []string{
		"aa_gauge", `build_info{version="v1"}`, "float_total", "fn_gauge", "lat_seconds",
		`req_total{path="/a"}`, `req_total{path="/b"}`, "zz_total",
	}
	if len(got) != len(wantNames) {
		t.Fatalf("got %d samples, want %d: %+v", len(got), len(wantNames), got)
	}
	byName := map[string]Sample{}
	for i, s := range got {
		if s.Name != wantNames[i] {
			t.Fatalf("sample %d = %q, want %q (sorted by metric name)", i, s.Name, wantNames[i])
		}
		byName[s.Name] = s
	}
	if s := byName["zz_total"]; s.Type != TypeCounter || s.Value != 3 {
		t.Fatalf("counter sample = %+v", s)
	}
	if s := byName["aa_gauge"]; s.Type != TypeGauge || s.Value != 1.5 {
		t.Fatalf("gauge sample = %+v", s)
	}
	if s := byName[`build_info{version="v1"}`]; s.Type != TypeGauge || s.Value != 1 {
		t.Fatalf("info sample = %+v", s)
	}
	if s := byName["fn_gauge"]; s.Value != 2.5 {
		t.Fatalf("gauge-func sample = %+v", s)
	}
	if s := byName["float_total"]; s.Type != TypeCounter || s.Value != 0.25 {
		t.Fatalf("float counter sample = %+v", s)
	}
	if s := byName[`req_total{path="/b"}`]; s.Value != 2 {
		t.Fatalf("vec child sample = %+v", s)
	}
	hs := byName["lat_seconds"]
	if hs.Type != TypeHistogram || hs.Hist == nil || hs.Hist.Count != 2 || hs.Value != 2 {
		t.Fatalf("histogram sample = %+v", hs)
	}
	if q := hs.Hist.Quantile(0.25); q != 0.5 {
		t.Fatalf("histogram snapshot quantile = %g, want 0.5", q)
	}
}

// TestMetricsJSONIsSamples pins the JSON view of GET /metrics: it decodes
// to exactly what Samples returns — values, histogram bounds and counts,
// and exemplars included — while the default and ?format=text requests
// still get the text page, and an unknown format is refused.
func TestMetricsJSONIsSamples(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", "").Add(12345678)
	r.FloatCounter("cycles_total", "").Add(2.5e9)
	r.CounterVec("req_total", "").With(`path="/a",code="200"`).Inc()
	r.Gauge("inflight", "").Set(-1.5)
	r.Info("build_info", "", `version="v1"`)
	r.Histogram("empty_seconds", "")
	h := r.Histogram("lat_seconds", "", 0.001, 0.01)
	h.Observe(0.0004)
	h.ObserveExemplar(0.004, "req-1")
	h.ObserveExemplar(3, "req-2")

	get := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics"+query, nil))
		return rec
	}
	rec := get("?format=json")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("json view: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	got, err := DecodeSamples(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("json view decodes to\n%+v\nwant Samples()\n%+v", got, want)
	}
	var lat *HistogramSnapshot
	for _, s := range got {
		if s.Name == "lat_seconds" {
			lat = s.Hist
		}
	}
	want := []BucketExemplar{{LE: "0.01", RequestID: "req-1", Value: 0.004}, {LE: "+Inf", RequestID: "req-2", Value: 3}}
	if lat == nil || !reflect.DeepEqual(lat.Exemplars(), want) {
		t.Fatalf("exemplars from the json view: %+v, want %+v", lat, want)
	}

	var page strings.Builder
	r.Expose(&page)
	for _, q := range []string{"", "?format=text"} {
		if rec := get(q); rec.Code != http.StatusOK || rec.Body.String() != page.String() {
			t.Fatalf("GET /metrics%s: %d, body differs from Expose:\n%s", q, rec.Code, rec.Body.String())
		}
	}
	if rec := get("?format=xml"); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", rec.Code)
	}

	// A histogram whose slices disagree would make Quantile, Sub or
	// Exemplars index out of range; DecodeSamples refuses it.
	for _, body := range []string{
		`[{"name":"h","type":"histogram","value":1,"hist":{"bounds":[1,2],"counts":[1]}}]`,
		`[{"name":"h","type":"histogram","value":1,"hist":{"bounds":[1],"counts":[1,0],"exemplar_ids":["a",""]}}]`,
		`[{"name":"h","type":"histogram","value":1,"hist":{"bounds":[1],"counts":[1,0],"exemplar_ids":["a"],"exemplar_vals":[1]}}]`,
		`{"name":"not a list"}`,
	} {
		if _, err := DecodeSamples(strings.NewReader(body)); err == nil {
			t.Errorf("DecodeSamples accepted %s", body)
		}
	}
}
