package serve

import (
	"container/list"
	"sync"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/profile"
	"repro/internal/ring"
	"repro/internal/telemetry/tsdb"
)

// timeline is everything the server retains about one container instance:
// identity, lifetime totals, a bounded ring of dashboard cells for its most
// recent windows, and its drift state. Memory per timeline is capped by the
// ring and the tracker's blend, memory across timelines by the store's LRU —
// a misbehaving client streaming a million instances evicts its own history
// instead of growing the process.
type timeline struct {
	key      string
	context  string
	instance int

	windows    int    // windows ever ingested for this instance
	ops        uint64 // interface invocations those windows covered
	lastSeq    int
	outOfOrder int // windows whose seq did not advance

	// touch is the server-wide recency stamp of the last ingest into this
	// timeline. The list order below is recency within one store; touch is
	// what lets the dashboard merge many per-shard stores into one global
	// most-recently-active order.
	touch uint64

	// cells are the recent windows reduced at ingest to what the dashboard
	// reads: eight words each and no pointers, so the GC has nothing in them
	// to trace.
	cells ring.Ring[DashboardWindow]
	drift drift.Tracker
}

// timelineStore is the bounded per-instance state behind /v1/profiles: an
// LRU over instance keys, each holding one timeline. All methods are safe
// for concurrent use; one lock covers every timeline and its drift state.
type timelineStore struct {
	mu       sync.Mutex
	maxInst  int
	ringSize int
	suggest  core.Suggester
	driftCfg drift.Config
	order    *list.List // front = most recently touched
	items    map[string]*list.Element
}

func newTimelineStore(maxInstances, ringSize int, suggest core.Suggester, driftCfg drift.Config) *timelineStore {
	return &timelineStore{
		maxInst:  maxInstances,
		ringSize: ringSize,
		suggest:  suggest,
		driftCfg: driftCfg,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

// addOutcome reports everything one ingest changed, so the caller can keep
// incremental per-kind aggregates (the /v1/rollup state) in lockstep with
// the store: instance creations and evictions move instance counts,
// kind changes are observed migrations. event and err are the drift
// evaluation's.
type addOutcome struct {
	outOfOrder  bool
	isNew       bool     // a timeline was created for this instance
	kindChanged bool     // the instance's backend changed mid-timeline
	prevKind    adt.Kind // valid when kindChanged
	evicted     bool     // a timeline was evicted to make room
	evictedKind adt.Kind // valid when evicted
	event       *drift.Event
	err         error // the suggester could not advise on the blend
}

// add ingests one window into its instance's timeline, creating (and, at
// the bound, evicting) as needed, stamping the timeline with the caller's
// recency stamp, and runs the instance's drift evaluation on arch, all
// under one hold of the store lock.
func (s *timelineStore) add(w *profile.WindowRecord, touch uint64, arch string) addOutcome {
	key := w.InstanceKey()
	var out addOutcome
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		tl := &timeline{
			key:      key,
			context:  w.Context,
			instance: w.Instance,
			lastSeq:  -1,
			cells:    ring.New[DashboardWindow](s.ringSize),
		}
		el = s.order.PushFront(tl)
		s.items[key] = el
		out.isNew = true
		if len(s.items) > s.maxInst {
			oldest := s.order.Back()
			s.order.Remove(oldest)
			victim := oldest.Value.(*timeline)
			delete(s.items, victim.key)
			out.evicted = true
			out.evictedKind = victim.drift.Kind()
		}
	} else {
		s.order.MoveToFront(el)
	}
	tl := el.Value.(*timeline)
	tl.touch = touch
	if tl.windows > 0 && w.Seq <= tl.lastSeq {
		tl.outOfOrder++
		out.outOfOrder = true
	}
	if w.Seq > tl.lastSeq {
		tl.lastSeq = w.Seq
	}
	if !out.isNew && w.Kind != tl.drift.Kind() {
		out.kindChanged = true
		out.prevKind = tl.drift.Kind()
	}
	tl.windows++
	tl.ops += w.Ops()
	tl.cells.Push(dashboardWindow(w))
	out.event, out.err = tl.drift.Observe(w, arch, s.suggest, s.driftCfg)
	return out
}

// driftStatus returns the drift state of one retained instance.
func (s *timelineStore) driftStatus(key string) (drift.Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return drift.Status{}, false
	}
	return el.Value.(*timeline).drift.Status(), true
}

// rows renders every retained timeline as a dashboard row, most recently
// touched first.
func (s *timelineStore) rows() []DashboardRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DashboardRow, 0, len(s.items))
	for el := s.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*timeline).row())
	}
	return out
}

// row renders the timeline for the dashboard. The trend derives from the
// retained windows themselves, not the sampler's wall clock, so a fixed
// ingestion sequence renders a byte-identical sparkline — the same golden
// contract as Mix.
func (tl *timeline) row() DashboardRow {
	st := tl.drift.Status()
	row := DashboardRow{
		Key:        tl.key,
		Context:    tl.context,
		Instance:   tl.instance,
		Kind:       st.Kind.String(),
		Windows:    tl.windows,
		Ops:        tl.ops,
		OutOfOrder: tl.outOfOrder,
		Touch:      tl.touch,
		Timeline:   tl.cells.Items(),
	}
	if st.Advised {
		row.Advised = true
		row.Initial = st.Initial.String()
		row.Current = st.Current.String()
		row.Confidence = st.Confidence
		row.Drifted = st.Drifted()
		row.Events = st.Events
	}
	mix := make([]byte, len(row.Timeline))
	lens := make([]float64, len(row.Timeline))
	for i, cell := range row.Timeline {
		mix[i] = mixGlyph(cell)
		lens[i] = float64(cell.Len)
	}
	row.Mix = string(mix)
	row.Trend = tsdb.Spark(lens)
	return row
}
