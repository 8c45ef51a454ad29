package loadgen

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/ann"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tsdb"
	"repro/internal/training"
)

func TestZipfBoundsAndDeterminism(t *testing.T) {
	z, err := NewZipf(64, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		ka, kb := z.Next(a), z.Next(b)
		if ka != kb {
			t.Fatalf("draw %d not deterministic: %d vs %d", i, ka, kb)
		}
		if ka < 0 || ka >= 64 {
			t.Fatalf("draw %d out of range: %d", i, ka)
		}
	}
	if _, err := NewZipf(0, 0.5); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewZipf(10, 1.0); err == nil {
		t.Fatal("theta=1 accepted")
	}
}

// TestZipfSkewConcentrates: at theta 0.99 the hottest key takes far more
// than its uniform share, and at theta 0 the distribution is flat-ish.
func TestZipfSkewConcentrates(t *testing.T) {
	const n, draws = 128, 100000
	count := func(theta float64) []int {
		z, err := NewZipf(n, theta)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(7))
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[z.Next(r)]++
		}
		return counts
	}
	hot := count(0.99)
	if share := float64(hot[0]) / draws; share < 0.10 {
		t.Fatalf("theta=0.99 hottest key got %.3f of draws, want > 10x uniform (uniform = %.4f)", share, 1.0/n)
	}
	flat := count(0)
	if share := float64(flat[0]) / draws; share > 0.05 {
		t.Fatalf("theta=0 hottest key got %.3f of draws, want near uniform", share)
	}
}

func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		in       string
		adv, pro int
		wantErr  bool
	}{
		{"9:1", 9, 1, false},
		{"1:0", 1, 0, false},
		{"3", 3, 0, false},
		{"0:0", 0, 0, true},
		{"a:b", 0, 0, true},
		{"-1:2", 0, 0, true},
	} {
		adv, pro, err := ParseMix(tc.in)
		if (err != nil) != tc.wantErr {
			t.Fatalf("ParseMix(%q) err = %v", tc.in, err)
		}
		if err == nil && (adv != tc.adv || pro != tc.pro) {
			t.Fatalf("ParseMix(%q) = %d:%d, want %d:%d", tc.in, adv, pro, tc.adv, tc.pro)
		}
	}
}

func TestQuantileMs(t *testing.T) {
	lats := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
		4 * time.Millisecond, 100 * time.Millisecond,
	}
	if q := quantileMs(lats, 0.5); q != 3 {
		t.Fatalf("p50 = %g, want 3", q)
	}
	if q := quantileMs(lats, 0.99); q != 100 {
		t.Fatalf("p99 = %g, want 100", q)
	}
	if q := quantileMs(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %g", q)
	}
	// Nearest rank: the p99 of 60 latencies is the 60th (⌈59.4⌉), where
	// rounding would take the 59th.
	var sixty []time.Duration
	for i := 1; i <= 60; i++ {
		sixty = append(sixty, time.Duration(i)*time.Millisecond)
	}
	if q := quantileMs(sixty, 0.99); q != 60 {
		t.Fatalf("p99 of 1..60ms = %g, want 60", q)
	}
}

// testServer builds a real sharded advisor around a deterministic untrained
// model, the same shape the serve tests use.
func testServer(t *testing.T) (*serve.Server, string) {
	t.Helper()
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
	// FlightSize is large so the reconciliation test can resolve any p99
	// exemplar in the journal: at the default bound a short hot run can
	// scroll early records out of the ring before the lookup.
	// A fast sample interval so short runs still land several scrapes in the
	// time-series store (the p99-trend assertions need points).
	s := serve.New(set, serve.Config{NoRequestLog: true, DriftRules: true, FlightSize: 1 << 16,
		SampleInterval: 25 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts.URL
}

// TestRunnerClosedLoop drives a short real run end to end: every op
// succeeds, the mix includes both endpoints, latencies are recorded, and
// the zipf-hot advise keys produce cache hits visible in the report.
func TestRunnerClosedLoop(t *testing.T) {
	_, url := testServer(t)
	r, err := NewRunner(Config{
		URL:         url,
		Conns:       4,
		Duration:    300 * time.Millisecond,
		Skew:        0.99,
		Keys:        16,
		MixAdvise:   3,
		MixProfiles: 1,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d of %d ops", rep.Errors, rep.Ops)
	}
	if rep.Ops == 0 || rep.AdviseOps == 0 || rep.ProfileOps == 0 {
		t.Fatalf("mix not exercised: %+v", rep)
	}
	if rep.Ops != rep.AdviseOps+rep.ProfileOps {
		t.Fatalf("op accounting: %d != %d + %d", rep.Ops, rep.AdviseOps, rep.ProfileOps)
	}
	if rep.OpsPerSec <= 0 || rep.LatencyP50Ms <= 0 || rep.LatencyP99Ms < rep.LatencyP50Ms {
		t.Fatalf("latency accounting: %+v", rep)
	}
	// 16 keys under 0.99 skew: after the first pass almost everything is a
	// repeat, so the measured hit rate must be positive.
	if rep.CacheHitRate <= 0 {
		t.Fatalf("cache hit rate = %g, want > 0 under hot-key skew", rep.CacheHitRate)
	}
}

// TestP99ExemplarSelection pins the report's exemplar cut: everything at or
// above the p99 makes it in (slowest first), and a histogram too coarse to
// clear the cut still links its single slowest request.
func TestP99ExemplarSelection(t *testing.T) {
	exs := []telemetry.BucketExemplar{
		{LE: "0.005", RequestID: "fast", Value: 0.004},
		{LE: "0.1", RequestID: "slowest", Value: 0.09},
		{LE: "0.025", RequestID: "slow", Value: 0.02},
	}
	got := p99Exemplars(exs, 15) // p99 = 15ms: two exemplars clear it
	if len(got) != 2 || got[0].RequestID != "slowest" || got[1].RequestID != "slow" {
		t.Fatalf("p99 cut: %+v", got)
	}
	if got[0].LatencyMs != 90 || got[0].BucketLE != "0.1" {
		t.Fatalf("exemplar fields: %+v", got[0])
	}
	// Cut above every exemplar: keep the single slowest so the report always
	// links at least one traceable request.
	if got := p99Exemplars(exs, 500); len(got) != 1 || got[0].RequestID != "slowest" {
		t.Fatalf("coarse-bucket fallback: %+v", got)
	}
	if got := p99Exemplars(nil, 1); got != nil {
		t.Fatalf("no exemplars must yield nil, got %+v", got)
	}
}

// bucketIdx places a latency (seconds) in the advise histogram's bucket grid.
func bucketIdx(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// TestServerSideQuantilesAndSLO pins the report's server-side view: the
// advise-histogram quantiles agree with the directly measured latencies,
// the health verdict rides along, and the p99 trend has points covering
// the run. The report's p99 comes from the /metrics histogram delta over
// the measured phase; a test-owned time-series sampler on the same
// registry, scraped just before and just after the run, must give the same
// p99 over the same interval to within one histogram bucket (the handful
// of requests whose latency the server records after the report's last
// read can move it, interpolation cannot).
//
// The run is advise-only, so the client's latencies and the server's
// advise histogram cover the same requests, and both quantiles take the
// ⌈q·n⌉-th observation: each server duration lies inside its client round
// trip, so the server's p99 bucket cannot pass the client's.
func TestServerSideQuantilesAndSLO(t *testing.T) {
	s, url := testServer(t)
	r, err := NewRunner(Config{
		URL:         url,
		Conns:       4,
		Duration:    500 * time.Millisecond,
		Skew:        0.5,
		Keys:        16,
		MixAdvise:   1,
		MixProfiles: 0,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sampler's clock is the test's: one scrape at t=1s, one at t=2s.
	clock := time.Unix(0, 0)
	sampler := tsdb.New(s.Metrics().Registry(), tsdb.Config{
		NoGauges: true,
		Now:      func() time.Time { clock = clock.Add(time.Second); return clock },
	})
	sampler.Scrape()
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sampler.Scrape()
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if rep.ServerP99Ms <= 0 || rep.ServerP50Ms <= 0 || rep.ServerP99Ms < rep.ServerP50Ms {
		t.Fatalf("server quantiles: p50=%g p99=%g", rep.ServerP50Ms, rep.ServerP99Ms)
	}
	// The handler cannot be slower than the round trip the client timed.
	if sb, cb := bucketIdx(telemetry.DefBuckets, rep.ServerP99Ms/1000), bucketIdx(telemetry.DefBuckets, rep.LatencyP99Ms/1000); sb > cb {
		t.Fatalf("server p99 %.3fms (bucket %d) above direct round-trip p99 %.3fms (bucket %d)",
			rep.ServerP99Ms, sb, rep.LatencyP99Ms, cb)
	}
	if rep.SLO == nil || rep.SLO.Status == "" {
		t.Fatalf("report carries no SLO verdict: %+v", rep.SLO)
	}
	if len(rep.SLO.Objectives) != 4 {
		t.Fatalf("objective count = %d, want 4", len(rep.SLO.Objectives))
	}
	if len(rep.P99TrendMs) == 0 {
		t.Fatal("report carries no p99 trend points")
	}
	for _, v := range rep.P99TrendMs {
		if v <= 0 {
			t.Fatalf("trend point %g not positive: %v", v, rep.P99TrendMs)
		}
	}
	d, ok := sampler.DB().HistogramDelta("brainy_advise_duration_seconds", int64(time.Second), clock.UnixNano())
	if !ok || d.Count == 0 {
		t.Fatalf("sampler saw no advise latencies over the run: %+v", d)
	}
	tsdbP99 := d.Quantile(0.99) * 1000
	tsdbB := bucketIdx(telemetry.DefBuckets, tsdbP99/1000)
	directB := bucketIdx(telemetry.DefBuckets, rep.ServerP99Ms/1000)
	if diff := tsdbB - directB; diff < -1 || diff > 1 {
		t.Fatalf("tsdb p99 %.3fms (bucket %d) vs reported p99 %.3fms (bucket %d): more than one bucket apart",
			tsdbP99, tsdbB, rep.ServerP99Ms, directB)
	}
}

// TestRunReconcilesWithRollupAndExemplars closes the observability loop the
// CI smoke also checks: after a run, the server-side fleet rollup agrees
// exactly with the client-side report, and the report links request IDs
// that resolve in the server's decision journal.
func TestRunReconcilesWithRollupAndExemplars(t *testing.T) {
	_, url := testServer(t)
	r, err := NewRunner(Config{
		URL:         url,
		Conns:       2,
		Duration:    300 * time.Millisecond,
		Skew:        0.5,
		Keys:        32,
		MixAdvise:   2,
		MixProfiles: 1,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}

	var roll serve.RollupResponse
	resp, err := http.Get(url + "/v1/rollup")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&roll); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Exact reconciliation: every counted op was fully served, every served
	// op was counted. One advise decision per advise op (single-profile
	// bodies), one ingested window per profiles op.
	if roll.AdviseDecisions != rep.AdviseOps {
		t.Fatalf("rollup advise_decisions = %d, report advise_ops = %d", roll.AdviseDecisions, rep.AdviseOps)
	}
	if roll.Windows != rep.ProfileOps {
		t.Fatalf("rollup windows = %d, report profile_ops = %d", roll.Windows, rep.ProfileOps)
	}

	if len(rep.P99Exemplars) == 0 {
		t.Fatal("report carries no p99 exemplars")
	}
	// Every linked request ID resolves in the decision journal — the
	// brainy-explain handoff.
	for _, ex := range rep.P99Exemplars {
		var dec serve.DecisionsResponse
		dresp, err := http.Get(url + "/debug/decisions?format=json&request_id=" + ex.RequestID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(dresp.Body).Decode(&dec); err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dec.Returned == 0 {
			t.Fatalf("exemplar %s not found in the decision journal", ex.RequestID)
		}
	}
}
