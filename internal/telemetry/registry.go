// Package telemetry is the repository's observability backbone: the metric
// primitives, a central registry that reads them as typed samples and
// renders those as the Prometheus text exposition or JSON, and a
// lightweight span tracer with pluggable exporters.
// Brainy's premise is measurement — instrumented interface functions feeding
// a profile to a model — and this package applies the same discipline to the
// pipeline itself: the training run, the simulator, and the HTTP advisor all
// register their counters here and bracket their long stages with spans,
// with ~zero cost when tracing is disabled.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// MetricType is the TYPE metadata of a registered metric, matching the
// Prometheus exposition vocabulary.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// validName is the Prometheus metric-name grammar.
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// metric is one registry entry: identity, metadata, and how to read its
// current value(s) as typed samples. Every rendering — the text page, the
// JSON view, the time-series store — starts from that one read.
type metric struct {
	name  string
	help  string
	typ   MetricType
	whole bool // values are whole counts, printed with %d on the text page
	read  func(out []Sample) []Sample
}

// Sample is one typed metric reading. Labelled families contribute one
// Sample per child with the rendered label list folded into the name
// (`requests{path="/x"}`), so a sample name is a stable series identity.
// Histograms carry their full snapshot so consumers can difference windows
// and interpolate quantiles instead of settling for a scalar.
type Sample struct {
	Name  string             `json:"name"`
	Type  MetricType         `json:"type"`
	Value float64            `json:"value"`          // counter/gauge value; histogram sample count
	Hist  *HistogramSnapshot `json:"hist,omitempty"` // non-nil only for histograms
}

// Registry is a register-once collection of named metrics. Registration
// panics on an invalid or duplicate name — metric identity is program
// structure, so a collision is a bug, not a runtime condition. All methods
// are safe for concurrent use, and so are the primitives they return.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// register installs one entry, enforcing the register-once contract.
func (r *Registry) register(name, help string, typ MetricType, whole bool, read func([]Sample) []Sample) {
	if !validName.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
	}
	r.metrics[name] = metric{name: name, help: help, typ: typ, whole: whole, read: read}
}

// Counter registers and returns a monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, TypeCounter, true, func(out []Sample) []Sample {
		return append(out, Sample{Name: name, Type: TypeCounter, Value: float64(c.Value())})
	})
	return c
}

// FloatCounter registers and returns a monotonic float64 counter.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	c := &FloatCounter{}
	r.register(name, help, TypeCounter, false, func(out []Sample) []Sample {
		return append(out, Sample{Name: name, Type: TypeCounter, Value: c.Value()})
	})
	return c
}

// CounterVec registers and returns a labelled counter family.
func (r *Registry) CounterVec(name, help string) *CounterVec {
	v := NewCounterVec()
	r.register(name, help, TypeCounter, true, func(out []Sample) []Sample {
		v.Each(func(labels string, value uint64) {
			out = append(out, Sample{Name: name + "{" + labels + "}", Type: TypeCounter, Value: float64(value)})
		})
		return out
	})
	return v
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, help, g.Value)
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at read time —
// for quantities some other subsystem already tracks (a process-wide
// allocator gauge, a pool depth) where a stored gauge would just be a stale
// copy needing its own update discipline.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeGauge, false, func(out []Sample) []Sample {
		return append(out, Sample{Name: name, Type: TypeGauge, Value: fn()})
	})
}

// Info registers an info metric: a constant gauge of 1 whose rendered label
// list (`version="v1",...`) carries the identity, the Prometheus idiom for
// build and configuration metadata.
func (r *Registry) Info(name, help, labels string) {
	s := Sample{Name: name + "{" + labels + "}", Type: TypeGauge, Value: 1}
	r.register(name, help, TypeGauge, false, func(out []Sample) []Sample { return append(out, s) })
}

// Histogram registers and returns a histogram with the given ascending
// bucket bounds (DefBuckets when none are given).
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	h := NewHistogram(bounds...)
	r.register(name, help, TypeHistogram, false, func(out []Sample) []Sample {
		s := h.Snapshot()
		return append(out, Sample{Name: name, Type: TypeHistogram, Value: float64(s.Count), Hist: &s})
	})
	return h
}

// sorted returns the registered entries in name order.
func (r *Registry) sorted() []metric {
	r.mu.Lock()
	entries := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		entries = append(entries, m)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	return entries
}

// Samples reads every registered metric's current value as typed samples,
// sorted by name; labelled families expand to one sample per child. It is
// the registry's only read: Expose renders these samples as text,
// ServeHTTP's JSON view encodes them as they are, and the in-process
// time-series sampler stores them.
func (r *Registry) Samples() []Sample {
	var out []Sample
	for _, m := range r.sorted() {
		out = m.read(out)
	}
	return out
}

// escapeHelp applies the exposition-format HELP escaping: backslash and
// newline are the only characters that need it.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Expose renders every registered metric in one pass, sorted by name, each
// preceded by its HELP and TYPE lines. The output is byte-stable for a
// fixed metric state.
func (r *Registry) Expose(w io.Writer) {
	for _, m := range r.sorted() {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
		for _, s := range m.read(nil) {
			switch {
			case s.Hist != nil:
				exposeHistogram(w, s.Name, s.Hist)
			case m.whole:
				// Whole counts are read as float64, exact below 2^53.
				fmt.Fprintf(w, "%s %d\n", s.Name, uint64(s.Value))
			default:
				fmt.Fprintf(w, "%s %g\n", s.Name, s.Value)
			}
		}
	}
}

// exposeHistogram writes one histogram as cumulative _bucket lines plus
// _sum and _count, the text exposition histogram convention. Once the
// histogram has samples it also writes _min and _max gauges — the exact
// extremes, which bucket bounds only bracket; they are omitted while empty
// so an unexercised histogram never shows a misleading zero. Buckets that
// carry an exemplar append it OpenMetrics-style (`# {request_id="..."}
// value`), linking the bucket to the most recent request that landed in it.
func exposeHistogram(w io.Writer, name string, s *HistogramSnapshot) {
	var cum uint64
	for i, n := range s.Counts {
		cum += n
		var exemplar string
		if s.ExemplarIDs != nil && s.ExemplarIDs[i] != "" {
			exemplar = fmt.Sprintf(" # {request_id=%q} %g", s.ExemplarIDs[i], s.ExemplarVals[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d%s\n", name, s.bucketLE(i), cum, exemplar)
	}
	fmt.Fprintf(w, "%s_sum %g\n", name, s.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	if s.Count > 0 {
		fmt.Fprintf(w, "%s_min %g\n", name, s.Min)
		fmt.Fprintf(w, "%s_max %g\n", name, s.Max)
	}
}

// DecodeSamples reads the JSON view that ServeHTTP serves for
// ?format=json. It refuses a histogram whose bucket, count, and exemplar
// slices disagree in length, so Quantile, Sub, and Exemplars can index a
// decoded snapshot without checking.
func DecodeSamples(r io.Reader) ([]Sample, error) {
	var samples []Sample
	if err := json.NewDecoder(r).Decode(&samples); err != nil {
		return nil, fmt.Errorf("telemetry: decoding samples: %w", err)
	}
	for _, s := range samples {
		h := s.Hist
		if h != nil && (len(h.Counts) != len(h.Bounds)+1 || len(h.ExemplarVals) != len(h.ExemplarIDs) ||
			h.ExemplarIDs != nil && len(h.ExemplarIDs) != len(h.Counts)) {
			return nil, fmt.Errorf("telemetry: histogram sample %q: bucket slices disagree in length", s.Name)
		}
	}
	return samples, nil
}

// ServeHTTP makes the registry a GET /metrics handler: the text exposition
// format by default (or ?format=text), and with ?format=json the same
// Samples as a JSON array, for clients that want typed readings instead of
// parsing text.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch req.URL.Query().Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Expose(w)
	case "json":
		body, err := json.Marshal(r.Samples())
		if err != nil { // a NaN or infinite gauge has no JSON form
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	default:
		http.Error(w, "format must be text or json", http.StatusBadRequest)
	}
}
