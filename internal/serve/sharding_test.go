package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
)

// TestShardedAdviseMatchesCLIPlan pins the batched fleet to the sequential
// CLI: with several shards and a batch size smaller than the trace, a
// many-profile request is split across shard batchers and reassembled — and
// the result must still be byte-identical to core.Analyze, order included.
func TestShardedAdviseMatchesCLIPlan(t *testing.T) {
	models := testModels()
	s := New(models, quietConfig(Config{Shards: 4, BatchSize: 3}))
	url, _ := startServer(t, s)

	var profiles []profile.Profile
	for i := 0; i < 12; i++ {
		profiles = append(profiles, vectorProfile(fmt.Sprintf("fleet/site%d", i), 40+i*25))
	}
	resp, got := postAdvise(t, url, traceBody(t, profiles), "Core2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	want := core.New(models).Analyze(profiles, "Core2")
	if !reflect.DeepEqual(got.Suggestions, want.Suggestions) {
		t.Fatalf("sharded suggestions diverge from CLI:\n got %+v\nwant %+v", got.Suggestions, want.Suggestions)
	}
	if !reflect.DeepEqual(got.Plan, want.Plan()) {
		t.Fatalf("sharded plan diverges from CLI:\n got %+v\nwant %+v", got.Plan, want.Plan())
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
	if got := s.timelineCount(); got != workers {
		t.Fatalf("retained timelines = %d, want %d", got, workers)
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
