// Package loadgen is the closed-loop load generator behind cmd/brainy-loadgen:
// a fixed number of connections issue advise and profile-ingest requests
// back to back against a running brainy-serve, drawing request keys from a
// zipfian distribution so the hot-key behavior of the inference cache and
// the shard batchers is actually exercised. The result is a machine-readable
// Report — throughput, latency quantiles, cache-hit rate — consumed by
// `make loadtest`, the CI throughput gate, and BENCH_serve.json.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/adt"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// Config tunes one load-generation run.
type Config struct {
	// URL is the base URL of the server under test (e.g. http://127.0.0.1:8377).
	URL string
	// Conns is the number of closed-loop workers; each holds one connection
	// and issues its next request as soon as the previous one finished.
	Conns int
	// Duration is how long the measured phase runs.
	Duration time.Duration
	// Warmup runs the same load without recording first — cache fill and
	// connection establishment stay out of the measurement.
	Warmup time.Duration
	// Skew is the zipf theta in [0,1) used to pick request keys.
	Skew float64
	// Keys is the size of the key universe: distinct advise traces (and
	// distinct profile-stream instances) the generator draws from.
	Keys int
	// MixAdvise:MixProfiles is the request mix; every worker interleaves
	// deterministically, e.g. 9:1 sends one ingest per nine advises.
	MixAdvise   int
	MixProfiles int
	// Seed makes the key sequence reproducible across runs.
	Seed int64
	// Arch is the ?arch= every request carries.
	Arch string
}

func (c Config) withDefaults() (Config, error) {
	if c.URL == "" {
		return c, fmt.Errorf("loadgen: URL required")
	}
	if c.Conns <= 0 {
		c.Conns = 8
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Keys <= 0 {
		c.Keys = 512
	}
	if c.MixAdvise <= 0 && c.MixProfiles <= 0 {
		c.MixAdvise, c.MixProfiles = 9, 1
	}
	if c.MixAdvise < 0 || c.MixProfiles < 0 {
		return c, fmt.Errorf("loadgen: negative mix %d:%d", c.MixAdvise, c.MixProfiles)
	}
	if c.Arch == "" {
		c.Arch = "Core2"
	}
	return c, nil
}

// ParseMix parses an "advise:profiles" ratio like "9:1"; a bare integer
// means advise-only.
func ParseMix(s string) (advise, profiles int, err error) {
	parts := strings.SplitN(s, ":", 2)
	advise, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("loadgen: bad mix %q: %v", s, err)
	}
	if len(parts) == 2 {
		profiles, err = strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return 0, 0, fmt.Errorf("loadgen: bad mix %q: %v", s, err)
		}
	}
	if advise < 0 || profiles < 0 || advise+profiles == 0 {
		return 0, 0, fmt.Errorf("loadgen: bad mix %q", s)
	}
	return advise, profiles, nil
}

// Report is the JSON result of one run: everything BENCH_serve.json records
// and the CI gate compares.
type Report struct {
	URL         string  `json:"url"`
	Arch        string  `json:"arch"`
	Conns       int     `json:"conns"`
	Skew        float64 `json:"skew"`
	Keys        int     `json:"keys"`
	Mix         string  `json:"mix"`
	DurationSec float64 `json:"duration_sec"`

	Ops        uint64  `json:"ops"`
	AdviseOps  uint64  `json:"advise_ops"`
	ProfileOps uint64  `json:"profile_ops"`
	Errors     uint64  `json:"errors"` // transport failures and non-200s
	OpsPerSec  float64 `json:"ops_per_sec"`

	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP90Ms float64 `json:"latency_p90_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	LatencyMaxMs float64 `json:"latency_max_ms"`

	// ServerP*Ms are the server's own advise-latency quantiles over the
	// measured phase, interpolated from the /metrics histogram delta with
	// the same telemetry.HistogramSnapshot.Quantile the tsdb and dashboard
	// use. Comparing them with LatencyP*Ms separates queueing in the server
	// from time on the wire; 0 when /metrics was unavailable.
	ServerP50Ms float64 `json:"server_p50_ms,omitempty"`
	ServerP90Ms float64 `json:"server_p90_ms,omitempty"`
	ServerP99Ms float64 `json:"server_p99_ms,omitempty"`

	// SLO is the server's /v1/health verdict right after the run — did the
	// load burn any error budget? Nil when the endpoint was unavailable.
	SLO *SLOStatus `json:"slo,omitempty"`

	// P99TrendMs is the server's advise-p99 per scrape interval across the
	// run, from /v1/timeseries — the shape of the tail, not just its end
	// state. Empty when the endpoint was unavailable.
	P99TrendMs []float64 `json:"p99_trend_ms,omitempty"`

	// CacheHitRate is hits/(hits+misses) over the measured phase, read
	// from the server's /metrics?format=json samples; -1 when they were
	// unavailable.
	CacheHitRate float64 `json:"cache_hit_rate"`

	// P99Exemplars are the request IDs the server stamped on its slowest
	// latency-histogram buckets during the run — the concrete requests to
	// feed brainy-explain when the tail looks wrong. Highest bucket first.
	P99Exemplars []ExemplarRef `json:"p99_exemplars,omitempty"`
}

// ExemplarRef names one traceable slow request read from /metrics.
type ExemplarRef struct {
	BucketLE  string  `json:"bucket_le"`
	RequestID string  `json:"request_id"`
	LatencyMs float64 `json:"latency_ms"`
}

// SLOStatus is the loadgen-local decode of GET /v1/health — only the fields
// the report records, so the load generator does not import the server.
type SLOStatus struct {
	Status     string         `json:"status"`
	Objectives []SLOObjective `json:"objectives,omitempty"`
}

// SLOObjective is one objective's verdict in the report.
type SLOObjective struct {
	Name     string  `json:"name"`
	State    string  `json:"state"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Reason   string  `json:"reason,omitempty"`
}

// Runner generates load against one server.
type Runner struct {
	cfg    Config
	client *http.Client
	zipf   *Zipf

	// Request bodies are pre-rendered per key: the measured loop does no
	// profiling or JSON encoding, only HTTP.
	adviseBodies [][]byte
	windowBodies [][]byte
}

// NewRunner pre-builds the key universe: one profiled container trace per
// key for /v1/advise (each key a distinct workload, hence a distinct
// inference-cache entry) and one snapshot window per key for /v1/profiles.
func NewRunner(cfg Config) (*Runner, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	zipf, err := NewZipf(cfg.Keys, cfg.Skew)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		cfg:  cfg,
		zipf: zipf,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Conns,
				MaxIdleConnsPerHost: cfg.Conns,
			},
		},
	}
	m := machine.New(machine.Core2())
	for key := 0; key < cfg.Keys; key++ {
		c := profile.NewContainer(adt.KindVector, m, 8, fmt.Sprintf("loadgen/site%d", key), false)
		// Small per-key workloads with distinct sizes: distinct feature
		// vectors, so every key is its own cache entry.
		n := 16 + key
		for i := 0; i < n; i++ {
			c.Insert(uint64(i))
		}
		for i := 0; i < n/2; i++ {
			c.Find(uint64(i * 3))
		}
		p := c.Snapshot()
		var buf bytes.Buffer
		if err := profile.WriteTrace(&buf, []profile.Profile{p}); err != nil {
			return nil, err
		}
		r.adviseBodies = append(r.adviseBodies, buf.Bytes())
		r.windowBodies = append(r.windowBodies, []byte(fmt.Sprintf(
			`{"context":"loadgen/site%d","kind":0,"instance":0,"window_seq":0,"window_start_op":0,"window_end_op":16,"stats":{"Count":[0,0,0,0,16,0,0,0,0,0]}}`+"\n", key)))
	}
	return r, nil
}

// counters is the /metrics?format=json read the hit rate, exemplars, and
// server-side latency histogram come from.
type counters struct {
	hits, misses float64
	ok           bool
	exemplars    []telemetry.BucketExemplar
	hist         telemetry.HistogramSnapshot
	histOK       bool
}

func (r *Runner) scrape() counters {
	resp, err := r.client.Get(r.cfg.URL + "/metrics?format=json")
	if err != nil {
		return counters{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return counters{}
	}
	samples, err := telemetry.DecodeSamples(resp.Body)
	if err != nil {
		return counters{}
	}
	var c counters
	for _, s := range samples {
		switch {
		case s.Name == "brainy_cache_hits_total":
			c.hits, c.ok = s.Value, true
		case s.Name == "brainy_cache_misses_total":
			c.misses, c.ok = s.Value, true
		case s.Name == "brainy_advise_duration_seconds" && s.Hist != nil:
			c.hist, c.histOK = *s.Hist, true
		case s.Name == "brainy_request_duration_seconds" && s.Hist != nil:
			c.exemplars = s.Hist.Exemplars()
		}
	}
	return c
}

// Run drives the configured load and returns the measured report. ctx
// cancellation ends the run early (the report covers what ran).
func (r *Runner) Run(ctx context.Context) (Report, error) {
	if r.cfg.Warmup > 0 {
		wctx, cancel := context.WithTimeout(ctx, r.cfg.Warmup)
		r.loop(wctx, nil)
		cancel()
	}
	before := r.scrape()

	period := r.cfg.MixAdvise + r.cfg.MixProfiles
	workers := make([]*workerStats, r.cfg.Conns)
	for i := range workers {
		workers[i] = &workerStats{
			rng:       rand.New(rand.NewSource(r.cfg.Seed + int64(i)*7919)),
			mixOffset: (i * period) / r.cfg.Conns, // stagger the mix phase across workers
		}
	}
	mctx, cancel := context.WithTimeout(ctx, r.cfg.Duration)
	defer cancel()
	start := time.Now()
	r.loop(mctx, workers)
	elapsed := time.Since(start)

	after := r.scrape()
	rep := Report{
		URL:         r.cfg.URL,
		Arch:        r.cfg.Arch,
		Conns:       r.cfg.Conns,
		Skew:        r.cfg.Skew,
		Keys:        r.cfg.Keys,
		Mix:         fmt.Sprintf("%d:%d", r.cfg.MixAdvise, r.cfg.MixProfiles),
		DurationSec: elapsed.Seconds(),
	}
	var lats []time.Duration
	for _, w := range workers {
		rep.Ops += w.ops
		rep.AdviseOps += w.advise
		rep.ProfileOps += w.profiles
		rep.Errors += w.errors
		lats = append(lats, w.lats...)
	}
	if elapsed > 0 {
		rep.OpsPerSec = float64(rep.Ops) / elapsed.Seconds()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep.LatencyP50Ms = quantileMs(lats, 0.50)
	rep.LatencyP90Ms = quantileMs(lats, 0.90)
	rep.LatencyP99Ms = quantileMs(lats, 0.99)
	if len(lats) > 0 {
		rep.LatencyMaxMs = float64(lats[len(lats)-1]) / float64(time.Millisecond)
	}
	rep.CacheHitRate = -1
	if before.ok && after.ok {
		hits, misses := after.hits-before.hits, after.misses-before.misses
		if hits+misses > 0 {
			rep.CacheHitRate = hits / (hits + misses)
		}
	}
	rep.P99Exemplars = p99Exemplars(after.exemplars, rep.LatencyP99Ms)
	// Server-side view of the same run: the advise-histogram delta over the
	// measured phase, the health verdict, and the p99 trend. Best-effort —
	// an older server without the endpoints still produces a full report.
	if before.histOK && after.histOK {
		d := after.hist.Sub(before.hist)
		if d.Count > 0 {
			rep.ServerP50Ms = d.Quantile(0.50) * 1000
			rep.ServerP90Ms = d.Quantile(0.90) * 1000
			rep.ServerP99Ms = d.Quantile(0.99) * 1000
		}
	}
	rep.SLO = r.fetchSLO()
	rep.P99TrendMs = r.fetchP99Trend(elapsed + r.cfg.Warmup)
	return rep, nil
}

// fetchSLO reads the server's health verdict; nil when unavailable.
func (r *Runner) fetchSLO() *SLOStatus {
	resp, err := r.client.Get(r.cfg.URL + "/v1/health")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var doc struct {
		Status string    `json:"status"`
		SLO    SLOStatus `json:"slo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil
	}
	out := doc.SLO
	out.Status = doc.Status
	return &out
}

// fetchP99Trend reads the server's advise-p99 series covering the run.
func (r *Runner) fetchP99Trend(window time.Duration) []float64 {
	q := url.Values{}
	q.Set("series", "brainy_advise_duration_seconds:p99")
	q.Set("since", window.Round(time.Millisecond).String())
	resp, err := r.client.Get(r.cfg.URL + "/v1/timeseries?" + q.Encode())
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var doc struct {
		Points map[string][]struct {
			V float64 `json:"v"`
		} `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil
	}
	var out []float64
	for _, p := range doc.Points["brainy_advise_duration_seconds:p99"] {
		out = append(out, p.V*1000)
	}
	return out
}

// p99Exemplars selects the traceable requests worth a second look: every
// bucket exemplar at or above the measured p99, slowest first — or, when
// the whole histogram sits under the p99 cut (coarse buckets), the single
// slowest exemplar so the report always links to at least one request.
func p99Exemplars(exs []telemetry.BucketExemplar, p99Ms float64) []ExemplarRef {
	var out []ExemplarRef
	for _, ex := range exs {
		out = append(out, ExemplarRef{
			BucketLE:  ex.LE,
			RequestID: ex.RequestID,
			LatencyMs: ex.Value * 1000,
		})
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LatencyMs > out[j].LatencyMs })
	n := 0
	for _, ex := range out {
		if ex.LatencyMs >= p99Ms {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return out[:n]
}

// workerStats is one closed-loop worker's private accounting; nil stats
// (warmup) drive the same load without recording.
type workerStats struct {
	rng       *rand.Rand
	mixOffset int
	ops       uint64
	advise    uint64
	profiles  uint64
	errors    uint64
	lats      []time.Duration
}

// loop runs Conns closed-loop workers until ctx expires. During warmup
// stats is nil and each worker uses a throwaway rand stream.
func (r *Runner) loop(ctx context.Context, stats []*workerStats) {
	period := r.cfg.MixAdvise + r.cfg.MixProfiles
	var wg sync.WaitGroup
	for i := 0; i < r.cfg.Conns; i++ {
		var ws *workerStats
		if stats != nil {
			ws = stats[i]
		} else {
			ws = &workerStats{rng: rand.New(rand.NewSource(r.cfg.Seed ^ 0x5eed + int64(i)))}
		}
		record := stats != nil
		wg.Add(1)
		go func(ws *workerStats) {
			defer wg.Done()
			for n := ws.mixOffset; ctx.Err() == nil; n++ {
				key := r.zipf.Next(ws.rng)
				isAdvise := n%period < r.cfg.MixAdvise
				var path string
				var body []byte
				if isAdvise {
					path = "/v1/advise"
					body = r.adviseBodies[key]
				} else {
					path = "/v1/profiles"
					body = r.windowBodies[key]
				}
				start := time.Now()
				ok := r.post(ctx, path, body)
				if !record {
					continue
				}
				ws.ops++
				ws.lats = append(ws.lats, time.Since(start))
				if isAdvise {
					ws.advise++
				} else {
					ws.profiles++
				}
				if !ok {
					ws.errors++
				}
			}
		}(ws)
	}
	wg.Wait()
}

// post issues one request; false means transport failure or non-200. The
// request runs under its own detached deadline, not the run context: the
// loop checks the run deadline *between* requests, so an in-flight request
// always completes and every op the report counts was fully served — the
// invariant that lets /v1/rollup totals reconcile exactly with the report.
// A failure right at run expiry is still not counted against the server.
func (r *Runner) post(ctx context.Context, path string, body []byte) bool {
	reqCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost,
		r.cfg.URL+path+"?arch="+r.cfg.Arch, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return ctx.Err() != nil
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// quantileMs returns the q-quantile of sorted latencies in milliseconds, by
// nearest rank: the ⌈q·n⌉-th smallest, the observation whose bucket
// telemetry.HistogramSnapshot.Quantile interpolates in.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
