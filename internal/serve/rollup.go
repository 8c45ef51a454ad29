package serve

import (
	"net/http"
	"sort"
	"sync"

	"repro/internal/adt"
	"repro/internal/machine"
	"repro/internal/profile"
)

// rollupState is one shard's incremental contribution to GET /v1/rollup:
// per-container-kind fleet aggregates maintained in lockstep with the
// shard's timeline store and advise path, then merged across shards at
// scrape time. Keeping the aggregation incremental means a scrape never
// walks the timelines — it locks each shard's rollup once, copies a few
// dozen numbers, and leaves.
type rollupState struct {
	mu    sync.Mutex
	kinds map[adt.Kind]*kindRollup
}

// kindRollup accumulates everything the fleet knows about one container
// kind, attributed by the kind an instance (or advise profile) currently
// declares.
type kindRollup struct {
	instances   int    // timelines currently retained with this kind
	windows     uint64 // snapshot windows ingested for this kind
	ops         uint64 // interface invocations those windows covered
	outOfOrder  uint64
	driftEvents uint64
	migrations  uint64 // observed backend changes away from this kind
	advise      uint64 // advise decisions for profiles of this kind
	advised     map[string]uint64
	hw          machine.Counters
	featSum     []float64 // running sum of window feature vectors
	featN       uint64
}

func newRollupState() *rollupState {
	return &rollupState{kinds: make(map[adt.Kind]*kindRollup)}
}

func (rs *rollupState) kind(k adt.Kind) *kindRollup {
	kr := rs.kinds[k]
	if kr == nil {
		kr = &kindRollup{advised: make(map[string]uint64)}
		rs.kinds[k] = kr
	}
	return kr
}

// countAdvise attributes one advise decision: profile p was answered with
// suggested. Called once per suggestion the server actually returns, so the
// fleet total reconciles exactly with client-side counts. The profile's
// feature vector joins the kind's running mean — the baseline brainy-explain
// diffs a single decision against — so advise-only fleets get a mean too.
// vec is p.Vector().
func (rs *rollupState) countAdvise(p *profile.Profile, vec []float64, suggested adt.Kind) {
	rs.mu.Lock()
	kr := rs.kind(p.Kind)
	kr.advise++
	kr.advised[suggested.String()]++
	if kr.featSum == nil {
		kr.featSum = make([]float64, len(vec))
	}
	for i, f := range vec {
		kr.featSum[i] += f
	}
	kr.featN++
	rs.mu.Unlock()
}

// ingestWindow folds one accepted /v1/profiles window into the aggregates,
// using the timeline store's outcome to keep instance counts and observed
// migrations exact: creations and kind changes move instances between
// kinds, evictions remove them, and a kind change is one migration charged
// to the kind the instance left. vec is w.Vector().
func (rs *rollupState) ingestWindow(w *profile.WindowRecord, vec []float64, out addOutcome) {
	rs.mu.Lock()
	kr := rs.kind(w.Kind)
	kr.windows++
	kr.ops += w.Ops()
	kr.hw = kr.hw.Add(w.HW)
	if kr.featSum == nil {
		kr.featSum = make([]float64, len(vec))
	}
	for i, f := range vec {
		kr.featSum[i] += f
	}
	kr.featN++
	if out.outOfOrder {
		kr.outOfOrder++
	}
	switch {
	case out.isNew:
		kr.instances++
	case out.kindChanged:
		prev := rs.kind(out.prevKind)
		prev.instances--
		prev.migrations++
		kr.instances++
	}
	if out.evicted {
		rs.kind(out.evictedKind).instances--
	}
	rs.mu.Unlock()
}

// countDrift attributes one confirmed drift event to the instance's kind at
// confirmation time.
func (rs *rollupState) countDrift(k adt.Kind) {
	rs.mu.Lock()
	rs.kind(k).driftEvents++
	rs.mu.Unlock()
}

// mergeInto folds this shard's aggregates into the scrape-time accumulator.
func (rs *rollupState) mergeInto(acc map[adt.Kind]*kindRollup) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for k, kr := range rs.kinds {
		a := acc[k]
		if a == nil {
			a = &kindRollup{advised: make(map[string]uint64)}
			acc[k] = a
		}
		a.instances += kr.instances
		a.windows += kr.windows
		a.ops += kr.ops
		a.outOfOrder += kr.outOfOrder
		a.driftEvents += kr.driftEvents
		a.migrations += kr.migrations
		a.advise += kr.advise
		for s, n := range kr.advised {
			a.advised[s] += n
		}
		a.hw = a.hw.Add(kr.hw)
		if kr.featSum != nil {
			if a.featSum == nil {
				a.featSum = make([]float64, len(kr.featSum))
			}
			for i, f := range kr.featSum {
				a.featSum[i] += f
			}
		}
		a.featN += kr.featN
	}
}

// HWTotals is the hardware-counter slice of one rollup row, summed across
// every ingested window of the kind.
type HWTotals struct {
	Cycles      float64 `json:"cycles"`
	Reads       uint64  `json:"reads"`
	Writes      uint64  `json:"writes"`
	L1Misses    uint64  `json:"l1_misses"`
	L2Misses    uint64  `json:"l2_misses"`
	Mispredicts uint64  `json:"branch_mispredicts"`
	TLBMisses   uint64  `json:"tlb_misses"`
	Allocs      uint64  `json:"allocs"`
}

// RollupKind is one per-kind row of the fleet rollup.
type RollupKind struct {
	Kind            string            `json:"kind"`
	Instances       int               `json:"instances"`
	Windows         uint64            `json:"windows"`
	Ops             uint64            `json:"ops"`
	OutOfOrder      uint64            `json:"out_of_order"`
	DriftEvents     uint64            `json:"drift_events"`
	Migrations      uint64            `json:"migrations"`
	AdviseDecisions uint64            `json:"advise_decisions"`
	Advised         map[string]uint64 `json:"advised,omitempty"` // suggested-kind histogram
	HW              HWTotals          `json:"hw"`
	FeatureMean     []float64         `json:"feature_mean,omitempty"` // aligned with Features
}

// RollupResponse is the body of GET /v1/rollup: fleet-wide aggregates per
// container kind, merged across shards at scrape time. Totals reconcile
// exactly with client-side accounting — every accepted window and every
// returned suggestion is counted exactly once.
type RollupResponse struct {
	SchemaVersion       int          `json:"schema_version"`
	RegistryFingerprint string       `json:"registry_fingerprint"`
	Shards              int          `json:"shards"`
	Instances           int          `json:"instances"`
	Windows             uint64       `json:"windows"`
	AdviseDecisions     uint64       `json:"advise_decisions"`
	DriftEvents         uint64       `json:"drift_events"`
	Migrations          uint64       `json:"migrations"`
	DecisionsJournaled  uint64       `json:"decisions_journaled"` // flight records ever appended
	DecisionsRetained   int          `json:"decisions_retained"`  // flight capacity across shards
	Features            []string     `json:"features"`            // names aligning every feature_mean
	Kinds               []RollupKind `json:"kinds"`
}

// rollup merges every shard's incremental aggregates into one response.
func (s *Server) rollup() RollupResponse {
	acc := make(map[adt.Kind]*kindRollup)
	var journaled uint64
	var retained int
	for _, sh := range s.shards {
		sh.rollup.mergeInto(acc)
		journaled += sh.flight.Total()
		retained += sh.flight.Cap()
	}
	resp := RollupResponse{
		SchemaVersion:       1,
		RegistryFingerprint: s.fingerprint,
		Shards:              len(s.shards),
		DecisionsJournaled:  journaled,
		DecisionsRetained:   retained,
		Features:            profile.FeatureNames,
		Kinds:               []RollupKind{},
	}
	kinds := make([]adt.Kind, 0, len(acc))
	for k := range acc {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].String() < kinds[j].String() })
	for _, k := range kinds {
		kr := acc[k]
		row := RollupKind{
			Kind:            k.String(),
			Instances:       kr.instances,
			Windows:         kr.windows,
			Ops:             kr.ops,
			OutOfOrder:      kr.outOfOrder,
			DriftEvents:     kr.driftEvents,
			Migrations:      kr.migrations,
			AdviseDecisions: kr.advise,
			HW: HWTotals{
				Cycles:      kr.hw.Cycles,
				Reads:       kr.hw.Reads,
				Writes:      kr.hw.Writes,
				L1Misses:    kr.hw.L1Misses,
				L2Misses:    kr.hw.L2Misses,
				Mispredicts: kr.hw.Mispredicts,
				TLBMisses:   kr.hw.TLBMisses,
				Allocs:      kr.hw.Allocs,
			},
		}
		if len(kr.advised) > 0 {
			row.Advised = make(map[string]uint64, len(kr.advised))
			for s, n := range kr.advised {
				row.Advised[s] = n
			}
		}
		if kr.featN > 0 {
			row.FeatureMean = make([]float64, len(kr.featSum))
			for i, f := range kr.featSum {
				row.FeatureMean[i] = f / float64(kr.featN)
			}
		}
		resp.Instances += kr.instances
		resp.Windows += kr.windows
		resp.AdviseDecisions += kr.advise
		resp.DriftEvents += kr.driftEvents
		resp.Migrations += kr.migrations
		resp.Kinds = append(resp.Kinds, row)
	}
	return resp
}

// handleRollup serves the fleet rollup.
func (s *Server) handleRollup(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.rollup())
}
