package serve

import (
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/profile"
	"repro/internal/serve/flight"
	"repro/internal/serve/shard"
)

// advisorShard is one vertical slice of the server's hot state. Every
// request key — the inference cache key on the advise path, the instance
// key on the ingest path — hashes to exactly one shard, and that shard
// exclusively owns the corresponding LRU cache, timeline store, and drift
// detector. Two requests contend only when they address the same shard, so
// lock contention falls 1/N instead of every request serializing on one
// mutex; nothing on either hot path takes a lock owned by another shard.
//
// The batcher is the shard's single evaluation goroutine: advise cache
// misses queue here and are coalesced (bounded batch size, bounded linger)
// into one matrix pass through the ANN — concurrency across shards,
// batching within one.
type advisorShard struct {
	srv       *Server
	id        int
	cache     *lruCache
	timelines *timelineStore
	drifts    *drift.Detector
	batcher   *shard.Batcher[*inferSlot]

	// flight journals this shard's advise decisions (nil when recording is
	// disabled — every journaling site is a nil check away from free).
	flight *flight.Ring
	// rollup is this shard's incremental contribution to /v1/rollup.
	rollup *rollupState
}

// inferSlot is one pending inference travelling from the advise handler to
// a shard's batch loop and back: inputs by value, results written into the
// slot, completion signalled through the request's WaitGroup. idx is the
// profile's position in the request, so the handler can reassemble results
// in request order regardless of batching.
type inferSlot struct {
	p    *profile.Profile
	arch string
	key  cacheKey
	idx  int

	// reqID and start carry decision provenance into the batch loop: which
	// request queued this inference and when, so the journaled record can
	// report submit-to-resolution latency.
	reqID string
	start time.Time

	sug core.Suggestion
	err error
	wg  *sync.WaitGroup
}

// shardForKey routes an inference key to its owning shard.
func (s *Server) shardForKey(k cacheKey) *advisorShard {
	return s.shards[shard.PickBytes(len(s.shards), k[:])]
}

// shardForInstance routes an instance key ("context#instance") to its
// owning shard.
func (s *Server) shardForInstance(key string) *advisorShard {
	return s.shards[shard.Pick(len(s.shards), key)]
}

// recordAdvise journals one advise verdict into the shard's flight ring.
// A nil err is verdict "ok"; otherwise "no-model" (the only way Suggest
// fails). With recording disabled (nil ring) this is one branch and no
// allocation — the zero-cost contract the AllocsPerRun test pins.
func (sh *advisorShard) recordAdvise(p *profile.Profile, arch string, key cacheKey, sug core.Suggestion, err error, reqID, path string, batchID uint64, batchSize int, lat time.Duration) {
	if sh.flight == nil {
		return
	}
	rec := flight.Record{
		Source:    "advise",
		Verdict:   "ok",
		RequestID: reqID,
		Context:   p.Context,
		Shard:     sh.id,
		Arch:      arch,
		Digest:    hex.EncodeToString(key[:8]),
		Kind:      p.Kind.String(),
		Path:      path,
		BatchID:   batchID,
		BatchSize: batchSize,
		Registry:  sh.srv.fingerprint,
		Drift:     sh.srv.driftStateFor(p.Context),
		LatencyNs: lat.Nanoseconds(),
		Features:  p.Vector(),
	}
	if err != nil {
		rec.Verdict = "no-model"
	} else {
		rec.Suggested = sug.Suggested.String()
		rec.Confidence = sug.Confidence
		if sug.Explanation != nil {
			rec.Probs = make([]flight.KindProb, len(sug.Explanation.Probs))
			for i, kp := range sug.Explanation.Probs {
				rec.Probs[i] = flight.KindProb{Kind: kp.Kind.String(), Prob: kp.Prob}
			}
		}
	}
	sh.flight.Append(rec)
}

// recordDrift journals one confirmed phase-drift event, so the journal
// interleaves advice and the divergences that later overturn it.
func (sh *advisorShard) recordDrift(ev *drift.Event, rec *profile.WindowRecord) {
	if sh.flight == nil {
		return
	}
	sh.flight.Append(flight.Record{
		Source:     "drift",
		Verdict:    "confirmed",
		Context:    ev.Context,
		Instance:   ev.InstanceKey,
		Shard:      sh.id,
		Kind:       ev.From.String(),
		Suggested:  ev.To.String(),
		Confidence: ev.Confidence,
		Registry:   sh.srv.fingerprint,
		WindowSeq:  ev.Seq,
		Votes:      ev.Votes,
		Features:   rec.Vector(),
	})
}

// driftStateFor summarizes the drift detector's view of a context for a
// journaled record: best-effort, keyed on the convention that instance 0
// carries a context's primary timeline. "" means never seen on the ingest
// path, "stable" means advice never moved, "a->b" is the latest move.
func (s *Server) driftStateFor(context string) string {
	st, ok := s.shardForInstance(context + "#0").drifts.Status(context + "#0")
	if !ok || !st.Advised {
		return ""
	}
	if !st.Drifted() {
		return "stable"
	}
	return st.Initial.String() + "->" + st.Current.String()
}

// runBatch is a shard's evaluation pass: it runs on the shard's single
// batching goroutine, so everything here is serialized per shard by
// construction. Identical inferences inside the batch (a zipf-hot key
// missing the cache from many concurrent requests at once) are deduplicated
// and evaluated once; distinct inferences sharing a model go through the
// net as one ProbabilitiesBatch matrix pass via core.SuggestBatch.
func (sh *advisorShard) runBatch(items []*inferSlot) {
	// One batch ID per evaluation pass: every decision journaled below
	// carries it, so /debug/decisions can reassemble which requests were
	// coalesced into one matrix pass.
	var batchID uint64
	if sh.flight != nil {
		batchID = sh.srv.batchSeq.Add(1)
	}
	// Group identical inferences, preserving first-seen order so the
	// evaluation sequence is deterministic.
	order := make([]cacheKey, 0, len(items))
	groups := make(map[cacheKey][]*inferSlot, len(items))
	for _, it := range items {
		if _, ok := groups[it.key]; !ok {
			order = append(order, it.key)
		}
		groups[it.key] = append(groups[it.key], it)
	}

	// Group representatives by architecture (one SuggestBatch call per
	// arch; the key already encodes arch, so reps of one key share it).
	archOrder := make([]string, 0, 1)
	byArch := make(map[string][]*inferSlot, 1)
	for _, k := range order {
		rep := groups[k][0]
		if _, ok := byArch[rep.arch]; !ok {
			archOrder = append(archOrder, rep.arch)
		}
		byArch[rep.arch] = append(byArch[rep.arch], rep)
	}

	for _, arch := range archOrder {
		reps := byArch[arch]
		ps := make([]*profile.Profile, len(reps))
		for i, rep := range reps {
			ps[i] = rep.p
		}
		sugs, errs := sh.srv.brainy.SuggestBatch(ps, arch)
		var evaluated uint64
		for i, rep := range reps {
			if errs[i] != nil {
				for _, it := range groups[rep.key] {
					it.err = errs[i]
				}
				continue
			}
			evaluated++
			cached := sugs[i]
			cached.Context = "" // per-request fields stay out of the cache
			cached.CyclesPct = 0
			sh.cache.Put(rep.key, cached)
			for _, it := range groups[rep.key] {
				sug := cached
				sug.Context = it.p.Context
				it.sug = sug
			}
		}
		if evaluated > 0 {
			sh.srv.metrics.Inferences.With(fmt.Sprintf("arch=%q", arch)).Add(evaluated)
		}
	}

	// Journal before signalling completion: by the time the handler's
	// response is on the wire, the decision is already queryable on
	// /debug/decisions (the round-trip brainy-explain depends on).
	if sh.flight != nil {
		for _, it := range items {
			sh.recordAdvise(it.p, it.arch, it.key, it.sug, it.err, it.reqID, "batch",
				batchID, len(items), time.Since(it.start))
		}
	}
	for _, it := range items {
		it.wg.Done()
	}
}

// cachingSuggester wraps Brainy.Suggest with this shard's LRU for the
// synchronous callers (the drift detector evaluates one blended window at a
// time during ingest, where batching latency would be pure cost).
// Model-derived fields are cached under the canonical inference key;
// per-request fields (Context, CyclesPct) are re-stamped on every hit. The
// shard uses its own cache even when the key would hash elsewhere — an
// occasional duplicate entry across shards is cheaper than taking another
// shard's lock on the ingest hot path.
func (sh *advisorShard) cachingSuggester() core.Suggester {
	return func(p *profile.Profile, arch string) (core.Suggestion, error) {
		key := inferenceKey(p, arch)
		if sug, ok := sh.cache.Get(key); ok {
			sh.srv.metrics.CacheHits.Inc()
			sug.Context = p.Context
			return sug, nil
		}
		sh.srv.metrics.CacheMisses.Inc()
		sug, err := sh.srv.brainy.Suggest(p, arch)
		if err != nil {
			return sug, err
		}
		sh.srv.metrics.Inferences.With(fmt.Sprintf("arch=%q", arch)).Inc()
		cached := sug
		cached.Context = ""
		cached.CyclesPct = 0
		sh.cache.Put(key, cached)
		return sug, nil
	}
}

// timelineCount sums retained timelines across shards.
func (s *Server) timelineCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.timelines.len()
	}
	return n
}

// ceilDiv divides a bound across shards, rounding up so N shards never
// retain less than the configured total.
func ceilDiv(total, parts int) int {
	if parts <= 1 {
		return total
	}
	return (total + parts - 1) / parts
}
