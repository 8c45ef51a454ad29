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

// errTooManyWindows aborts the streaming decoder when a batch exceeds the
// record bound (shared with /v1/advise).
var errTooManyWindows = errors.New("too many window records")

// handleProfiles ingests a snapshot-window stream (profile.SnapshotExporter
// output, JSON lines or one JSON array): each window lands in its
// instance's bounded timeline and runs through the drift detector. The
// endpoint is designed for repeated POSTs from a live application — state
// accumulates across requests, bounded by the instance LRU.
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

	resp := ProfilesResponse{Arch: arch, Drift: []drift.Event{}}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	err := profile.DecodeWindows(body, func(rec *profile.WindowRecord) error {
		if resp.Accepted >= s.cfg.MaxProfiles {
			return errTooManyWindows
		}
		// The instance key routes the window to the shard owning its
		// timeline and drift state; everything below touches only that
		// shard (plus shared atomic counters).
		sh := s.shardForInstance(rec.InstanceKey())
		out := sh.timelines.add(rec, s.touchSeq.Add(1))
		sh.rollup.ingestWindow(rec, out)
		if out.outOfOrder {
			resp.OutOfOrder++
			s.metrics.WindowsOutOfOrder.Inc()
		}
		if out.evicted {
			s.metrics.TimelineEvictions.Inc()
			sh.drifts.Forget(out.evictedKey)
		}
		resp.Accepted++
		s.metrics.ProfileWindows.Inc()
		s.metrics.WindowOps.Observe(float64(rec.Ops()))

		ev, derr := sh.drifts.Observe(rec, arch)
		if derr != nil {
			resp.Unadvised++ // no model for this kind/arch: timeline still grows
			s.metrics.DriftSkipped.Inc()
		}
		if ev != nil {
			resp.Drift = append(resp.Drift, *ev)
			sh.rollup.countDrift(rec.Kind)
			sh.recordDrift(ev, rec)
			s.log.Info("phase drift", "instance", ev.InstanceKey,
				"from", ev.From.String(), "to", ev.To.String(),
				"window", ev.Seq, "confidence", ev.Confidence)
		}
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
	if resp.Accepted == 0 {
		writeError(w, http.StatusBadRequest, "empty stream: send JSON-lines or a JSON array of window records")
		return
	}
	resp.Instances = s.timelineCount()
	s.metrics.TimelineInstances.Set(float64(resp.Instances))
	span.SetInt("windows", int64(resp.Accepted))
	span.SetInt("drift_events", int64(len(resp.Drift)))
	writeJSON(w, http.StatusOK, resp)
}
