package serve

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/drift"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// ProfilesResponse is the body of a successful POST /v1/profiles: ingestion
// accounting plus any drift events this batch confirmed.
type ProfilesResponse struct {
	Arch       string        `json:"arch"`
	Accepted   int           `json:"accepted"`  // windows ingested
	Instances  int           `json:"instances"` // timelines retained after this batch
	OutOfOrder int           `json:"out_of_order"`
	Unadvised  int           `json:"unadvised"` // windows the drift suggester could not evaluate
	Drift      []drift.Event `json:"drift"`     // events confirmed by this batch
}

// errTooManyWindows aborts the decode when a batch exceeds the record bound
// (shared with /v1/advise).
var errTooManyWindows = errors.New("too many window records")

// handleProfiles ingests a snapshot-window stream (profile.SnapshotExporter
// output, JSON lines or one JSON array): each window lands in its
// instance's bounded timeline, which runs the instance's drift evaluation.
// The endpoint is designed for repeated POSTs from a live application —
// state accumulates across requests, bounded by the instance LRU. A batch
// is all or nothing: every window is decoded and checked before any is
// applied, so a batch refused with 400 or 413 leaves the timelines, their
// drift state, the rollup and the ingest counters as they were, and a
// client can retry it whole.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	arch := r.URL.Query().Get("arch")
	if arch == "" {
		arch = s.cfg.DefaultArch
	}

	ctx, span := telemetry.StartSpan(r.Context(), "profiles")
	defer span.End()
	span.SetStr("arch", arch)
	span.SetStr("request_id", RequestIDFromContext(ctx))

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var recs []*profile.WindowRecord
	var vecs [][]float64 // vecs[i] is recs[i].Vector(), built once
	err := profile.DecodeWindows(body, func(rec *profile.WindowRecord) error {
		if len(recs) >= s.cfg.MaxProfiles {
			return errTooManyWindows
		}
		vec, err := checkMeasured("window", len(recs), &rec.Profile)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
		vecs = append(vecs, vec)
		return nil
	})
	switch {
	case err == nil:
	case errors.Is(err, errTooManyWindows):
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch exceeds %d records", s.cfg.MaxProfiles))
		return
	case isMaxBytesError(err):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	default:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(recs) == 0 {
		writeError(w, http.StatusBadRequest, "empty stream: send JSON-lines or a JSON array of window records")
		return
	}

	resp := ProfilesResponse{Arch: arch, Accepted: len(recs), Drift: []drift.Event{}}
	for i, rec := range recs {
		// The instance key routes the window to the shard owning its
		// timeline and drift state; everything below touches only that
		// shard (plus shared atomic counters).
		sh := s.shardForInstance(rec.InstanceKey())
		out := sh.timelines.add(rec, s.touchSeq.Add(1), arch)
		sh.rollup.ingestWindow(rec, vecs[i], out)
		if out.isNew {
			s.metrics.TimelineInstances.Inc()
		}
		if out.outOfOrder {
			resp.OutOfOrder++
			s.metrics.WindowsOutOfOrder.Inc()
		}
		if out.evicted {
			s.metrics.TimelineInstances.Dec()
			s.metrics.TimelineEvictions.Inc()
		}
		s.metrics.ProfileWindows.Inc()
		s.metrics.WindowOps.Observe(float64(rec.Ops()))
		if out.err != nil {
			resp.Unadvised++ // no model for this kind/arch: timeline still grows
			s.metrics.DriftSkipped.Inc()
		}
		if ev := out.event; ev != nil {
			resp.Drift = append(resp.Drift, *ev)
			s.metrics.DriftEvents.Inc()
			sh.rollup.countDrift(rec.Kind)
			sh.recordDrift(ev, vecs[i])
		}
	}
	resp.Instances = int(s.metrics.TimelineInstances.Value())
	span.SetInt("windows", int64(resp.Accepted))
	span.SetInt("drift_events", int64(len(resp.Drift)))
	writeReply(w, &resp, appendProfiles)
}
