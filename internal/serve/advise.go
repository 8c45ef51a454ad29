package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/serve/shard"
	"repro/internal/telemetry"
)

// AdviseResponse is the body of a successful POST /v1/advise: the same
// report and machine-readable plan the brainy CLI produces for the trace.
type AdviseResponse struct {
	Arch        string            `json:"arch"`
	Profiles    int               `json:"profiles"`
	Suggestions []core.Suggestion `json:"suggestions"`
	Skipped     []string          `json:"skipped,omitempty"`
	Plan        []core.PlanEntry  `json:"plan"`
}

// errTooManyProfiles aborts the decode when a trace exceeds the configured
// record bound.
var errTooManyProfiles = errors.New("too many profile records")

// handleAdvise runs the full advisor pipeline for one request: decode the
// trace (JSON lines or a JSON array), take an inference slot, analyze
// under the request deadline with the cache-wrapped suggester, and answer
// with the prioritized plan.
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	arch := r.URL.Query().Get("arch")
	if arch == "" {
		arch = s.cfg.DefaultArch
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var profiles []profile.Profile
	var vecs [][]float64 // vecs[i] is profiles[i].Vector(), built once
	err := profile.DecodeRecords(body, func(p *profile.Profile) error {
		if len(profiles) >= s.cfg.MaxProfiles {
			return errTooManyProfiles
		}
		vec, err := checkMeasured("profile", len(profiles), p)
		if err != nil {
			return err
		}
		profiles = append(profiles, *p)
		vecs = append(vecs, vec)
		return nil
	})
	switch {
	case err == nil:
	case errors.Is(err, errTooManyProfiles):
		writeError(w, http.StatusBadRequest, fmt.Sprintf("trace exceeds %d records", s.cfg.MaxProfiles))
		return
	case isMaxBytesError(err):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	default:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(profiles) == 0 {
		writeError(w, http.StatusBadRequest, "empty trace: send JSON-lines or a JSON array of profile records")
		return
	}

	// The advise span covers the analysis section (decode excluded), as a
	// child of the middleware's request span.
	ctx, span := telemetry.StartSpan(ctx, "advise")
	span.SetStr("arch", arch)
	span.SetInt("profiles", int64(len(profiles)))
	span.SetStr("request_id", RequestIDFromContext(ctx))
	report, err := s.analyze(ctx, profiles, vecs, arch, RequestIDFromContext(ctx))
	span.End()
	if err != nil {
		if errors.Is(err, shard.ErrClosed) {
			writeError(w, http.StatusServiceUnavailable, "server shutting down")
			return
		}
		writeTimeout(w, ctx, "analyzing trace")
		return
	}
	s.metrics.ProfilesAnalyzed.Add(uint64(len(profiles)))
	resp := AdviseResponse{
		Arch:        report.Arch,
		Profiles:    len(profiles),
		Suggestions: report.Suggestions,
		Skipped:     report.Skipped,
		Plan:        report.Plan(),
	}
	// Clients get arrays, never null.
	if resp.Suggestions == nil {
		resp.Suggestions = []core.Suggestion{}
	}
	if resp.Plan == nil {
		resp.Plan = []core.PlanEntry{}
	}
	// Suggestions carry their class distribution internally (the flight
	// recorder journals it); the response only includes it on request, so
	// the default wire format matches the CLI byte for byte.
	if ex := r.URL.Query().Get("explain"); ex != "1" && ex != "true" {
		for i := range resp.Suggestions {
			resp.Suggestions[i].Explanation = nil
		}
	}
	writeReply(w, &resp, appendAdvise)
}

// analyze is the sharded, batched equivalent of core.AnalyzeContext: cache
// hits resolve inline against their shard's LRU, misses queue on their
// shard's batcher (coalescing with misses from concurrent requests), and
// the report is assembled only after every slot resolved. Because each
// shard deduplicates within a batch, reuses the shared cache, and evaluates
// through core.SuggestBatch — bit-identical to Suggest — the response
// matches what the sequential CLI computes for the same trace, suggestion
// order and all. vecs[i] is the feature vector of profiles[i].
func (s *Server) analyze(ctx context.Context, profiles []profile.Profile, vecs [][]float64, arch, reqID string) (core.Report, error) {
	rep := core.Report{Arch: arch}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	var total float64
	for i := range profiles {
		total += profiles[i].Cycles
	}
	if total == 0 {
		total = 1
	}

	sugs := make([]core.Suggestion, len(profiles))
	errs := make([]error, len(profiles))
	shs := make([]*advisorShard, len(profiles))
	var wg sync.WaitGroup
	var slots []*inferSlot
	for i := range profiles {
		p, vec := &profiles[i], vecs[i]
		key := inferenceKey(p, vec, arch)
		sh := s.shardForKey(key)
		shs[i] = sh
		if sug, ok := sh.cache.Get(key); ok {
			s.metrics.CacheHits.Inc()
			sug.Context = p.Context
			sugs[i] = sug
			sh.recordAdvise(p, vec, arch, key, sug, nil, reqID, "cache", 0, 0, 0)
			continue
		}
		s.metrics.CacheMisses.Inc()
		slot := &inferSlot{p: p, vec: vec, arch: arch, key: key, idx: i, reqID: reqID, start: time.Now(), wg: &wg}
		wg.Add(1)
		if err := sh.batcher.Submit(ctx, slot); err != nil {
			wg.Done()
			return rep, err
		}
		slots = append(slots, slot)
	}
	if len(slots) > 0 {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			// Abandon the request; the queued slots still resolve on
			// their shards (warming the cache) and are then collected.
			return rep, ctx.Err()
		}
		for _, sl := range slots {
			sugs[sl.idx] = sl.sug
			errs[sl.idx] = sl.err
		}
	}

	// Rollup attribution happens only here, after every slot resolved: a
	// request that errors out or is abandoned mid-flight contributes
	// nothing, so the fleet's advise_decisions total reconciles exactly
	// with the suggestions clients actually received.
	for i := range profiles {
		if errs[i] != nil {
			rep.Skipped = append(rep.Skipped, profiles[i].Context)
			continue
		}
		sug := sugs[i]
		sug.CyclesPct = profiles[i].Cycles / total
		rep.Suggestions = append(rep.Suggestions, sug)
		shs[i].rollup.countAdvise(&profiles[i], vecs[i], sug.Suggested)
	}
	sort.SliceStable(rep.Suggestions, func(i, j int) bool {
		return rep.Suggestions[i].CyclesPct > rep.Suggestions[j].CyclesPct
	})
	return rep, nil
}

// checkMeasured builds record n's feature vector and refuses the record
// when its "cycles" is negative or a feature is not finite. A negative
// cycles makes cycles_per_call (log1p of cycles per call) NaN only below
// minus the call count, so it is refused on its own. Such a record would
// reach the inference cache, the flight ring, the rollup means and a
// timeline. Callers keep the vector it returns, so each record's vector is
// built once.
func checkMeasured(what string, n int, p *profile.Profile) ([]float64, error) {
	if p.Cycles < 0 {
		return nil, fmt.Errorf("%s %d (context %q): cycles %v is negative", what, n, p.Context, p.Cycles)
	}
	vec := p.Vector()
	for i, f := range vec {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("%s %d (context %q): feature %s is not finite", what, n, p.Context, profile.FeatureNames[i])
		}
	}
	return vec, nil
}

// isMaxBytesError reports whether err came from http.MaxBytesReader.
func isMaxBytesError(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// writeTimeout maps a context failure to 408 (deadline) or the client-gone
// status (cancellation).
func writeTimeout(w http.ResponseWriter, ctx context.Context, during string) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		writeError(w, http.StatusRequestTimeout, "deadline exceeded "+during)
		return
	}
	// Client went away; 499 is the de-facto convention (nginx).
	writeError(w, 499, "request cancelled "+during)
}

// writeError answers with a JSON error envelope.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeJSON renders one JSON response. It encodes before writing the
// header, so a value encoding/json refuses (a NaN, say) answers 500 with
// the error envelope instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		_ = enc.Encode(map[string]string{"error": "encoding response: " + err.Error()}) // a string map always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes()) // the client is gone; nothing is left to tell it
}
