package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
)

// TestShardedAdviseMatchesCLIPlan pins the batched fleet to the sequential
// CLI across shard counts and batch sizes: a many-profile request is split
// across shard batchers (one profile per pass at batch size 1, the whole
// shard's share at 32) and reassembled — and the result must still be
// byte-identical to core.Analyze, order included.
func TestShardedAdviseMatchesCLIPlan(t *testing.T) {
	models := testModels()
	var profiles []profile.Profile
	for i := 0; i < 12; i++ {
		profiles = append(profiles, vectorProfile(fmt.Sprintf("fleet/site%d", i), 40+i*25))
	}
	body := traceBody(t, profiles)
	want := core.New(models).Analyze(profiles, "Core2")
	for _, shards := range []int{1, 4} {
		for _, batch := range []int{1, 32} {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", shards, batch), func(t *testing.T) {
				s := New(models, quietConfig(Config{Shards: shards, BatchSize: batch}))
				url, _ := startServer(t, s)
				resp, got := postAdvise(t, url, body, "Core2")
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status = %d", resp.StatusCode)
				}
				if !reflect.DeepEqual(got.Suggestions, want.Suggestions) {
					t.Fatalf("sharded suggestions diverge from CLI:\n got %+v\nwant %+v", got.Suggestions, want.Suggestions)
				}
				if !reflect.DeepEqual(got.Plan, want.Plan()) {
					t.Fatalf("sharded plan diverges from CLI:\n got %+v\nwant %+v", got.Plan, want.Plan())
				}
			})
		}
	}
}

// TestRollupInvariantToShardCount sends the same windows and advise
// requests to a one-shard and a four-shard server: the fleet rollup is a
// property of the traffic, not of how the state is split, so every total
// and per-kind count must agree exactly. Only the header fields that
// describe the split (shards, flight capacity) differ, and the feature
// means, which each shard sums in its own order before the merge, agree to
// rounding.
func TestRollupInvariantToShardCount(t *testing.T) {
	phase, err := profile.ReadWindows(bytes.NewReader(phaseWindowStream(t, 64)))
	if err != nil {
		t.Fatal(err)
	}
	var windows []profile.WindowRecord
	for inst := 0; inst < 6; inst++ {
		for _, w := range phase {
			w.Instance = inst
			windows = append(windows, w)
		}
	}
	var ingest bytes.Buffer
	if err := profile.WriteWindows(&ingest, windows); err != nil {
		t.Fatal(err)
	}
	var advise [][]byte
	for i := 0; i < 4; i++ {
		advise = append(advise, traceBody(t, []profile.Profile{
			vectorProfile(fmt.Sprintf("inv/%d", i), 60+i*30),
			vectorProfile(fmt.Sprintf("inv/%d-b", i), 90+i*30),
		}))
	}

	rollup := func(shards int) RollupResponse {
		s := rulesServer(Config{Shards: shards})
		t.Cleanup(s.Close)
		h := s.Handler()
		post := func(path string, body []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%d shards: POST %s: status %d: %s", shards, path, rec.Code, rec.Body)
			}
		}
		post("/v1/profiles?arch=Core2", ingest.Bytes())
		for _, body := range advise {
			post("/v1/advise?arch=Core2", body)
		}
		used := 0
		for _, sh := range s.shards {
			if len(sh.timelines.rows()) > 0 {
				used++
			}
		}
		if shards > 1 && used < 2 {
			t.Fatalf("every instance landed on one of %d shards", shards)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/rollup", nil))
		var roll RollupResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &roll); err != nil {
			t.Fatalf("%d shards: rollup: %v", shards, err)
		}
		return roll
	}
	one, four := rollup(1), rollup(4)
	if one.Instances != 6 || one.DriftEvents == 0 || one.AdviseDecisions != 8 {
		t.Fatalf("one-shard rollup did not see the traffic: %+v", one)
	}
	if one.Shards != 1 || four.Shards != 4 {
		t.Fatalf("shards = %d and %d", one.Shards, four.Shards)
	}
	// Compare everything but the split's own description and the means.
	means := func(r *RollupResponse) [][]float64 {
		out := make([][]float64, len(r.Kinds))
		for i := range r.Kinds {
			out[i], r.Kinds[i].FeatureMean = r.Kinds[i].FeatureMean, nil
		}
		r.Shards, r.DecisionsRetained = 0, 0
		return out
	}
	oneMeans, fourMeans := means(&one), means(&four)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("rollup depends on the shard count:\n 1 shard  %+v\n4 shards %+v", one, four)
	}
	for k := range oneMeans {
		if len(oneMeans[k]) != len(fourMeans[k]) {
			t.Fatalf("%s: feature_mean lengths %d and %d", one.Kinds[k].Kind, len(oneMeans[k]), len(fourMeans[k]))
		}
		for i, a := range oneMeans[k] {
			if b := fourMeans[k][i]; math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
				t.Fatalf("%s: feature_mean[%d] = %v with 1 shard, %v with 4", one.Kinds[k].Kind, i, a, b)
			}
		}
	}
}

// TestShardedConcurrentStress hammers a multi-shard server from many
// goroutines mixing advise (hot keys shared across workers plus cold
// per-worker keys), profile ingestion, and dashboard reads. Run under -race
// in CI: it exists to prove the per-shard ownership story has no cross-shard
// data races.
func TestShardedConcurrentStress(t *testing.T) {
	s := rulesServer(Config{Shards: 4, BatchSize: 4, CacheSize: 64})
	url, _ := startServer(t, s)

	hot := traceBody(t, []profile.Profile{vectorProfile("stress/hot", 120)})
	const workers, iters = 8, 10
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < iters; i++ {
				var body []byte
				if i%2 == 0 {
					body = hot // same inference key from every worker
				} else {
					body = traceBody(t, []profile.Profile{vectorProfile(fmt.Sprintf("stress/w%d", w), 60+w*13+i)})
				}
				resp, err := http.Post(url+"/v1/advise?arch=Core2", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("advise status %d", resp.StatusCode)
					return
				}

				win := fmt.Sprintf(`{"context":"stress/inst","kind":0,"instance":%d,"window_seq":%d,"window_start_op":0,"window_end_op":8,"stats":{"count":[0,0,0,0,8,0,0,0,0,0]}}`+"\n", w, i)
				presp, err := http.Post(url+"/v1/profiles?arch=Core2", "application/json", bytes.NewReader([]byte(win)))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, presp.Body)
				presp.Body.Close()
				if presp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("profiles status %d", presp.StatusCode)
					return
				}

				if i%3 == 0 {
					dresp, err := http.Get(url + debugBrainyPath + "?format=json")
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, dresp.Body)
					dresp.Body.Close()
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
	// Every worker ingested into its own instance; all must be retained
	// across the shard fleet.
	if got := s.Metrics().TimelineInstances.Value(); got != workers {
		t.Fatalf("retained timelines = %v, want %d", got, workers)
	}
	// Hits + misses add up to one cache lookup per profile advised.
	lookups := s.Metrics().CacheHits.Value() + s.Metrics().CacheMisses.Value()
	if want := uint64(workers * iters); lookups != want {
		t.Fatalf("cache lookups = %d, want %d", lookups, want)
	}
}

// TestDrainFlushesBatchQueues is the zero-loss shutdown contract: requests
// racing SIGTERM, their inferences queued on or running in their shard
// batchers, must still complete — the drain stops each batcher only after
// it ran everything its queue accepted. No accepted request is lost, and
// Serve reports a clean drain.
func TestDrainFlushesBatchQueues(t *testing.T) {
	// A batch bound far above the request count: whatever is queued when
	// the drain begins runs in one pass.
	s := New(testModels(), quietConfig(Config{
		Shards:        2,
		BatchSize:     64,
		ShutdownGrace: 10 * time.Second,
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()

	const reqs = 6
	type result struct {
		status int
		sugs   int
		err    error
	}
	results := make(chan result, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct MaxLen per request means distinct inference keys:
			// all six are cache misses that queue on their shards.
			body := traceBody(t, []profile.Profile{vectorProfile(fmt.Sprintf("drain/site%d", i), 100+17*i)})
			resp, err := http.Post(url+"/v1/advise?arch=Core2", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			var out AdviseResponse
			if resp.StatusCode == http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					results <- result{err: err}
					return
				}
			} else {
				io.Copy(io.Discard, resp.Body)
			}
			results <- result{status: resp.StatusCode, sugs: len(out.Suggestions)}
		}(i)
	}

	// Wait until every request has missed the cache — i.e. its inference is
	// submitted (or about to be) to a shard queue — then begin the drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().CacheMisses.Value() < reqs {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests reached their shard queue", s.Metrics().CacheMisses.Value(), reqs)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the last Submit land in its queue
	cancel()

	wg.Wait()
	close(results)
	for res := range results {
		if res.err != nil {
			t.Fatalf("request lost to shutdown: %v", res.err)
		}
		if res.status != http.StatusOK || res.sugs != 1 {
			t.Fatalf("request lost to shutdown: status=%d suggestions=%d", res.status, res.sugs)
		}
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v, want clean drain", err)
	}
	// Everything the queues accepted was evaluated before the batchers
	// stopped.
	if got := s.Metrics().Inferences.Total(); got != reqs {
		t.Fatalf("inferences after drain = %d, want %d", got, reqs)
	}
}
