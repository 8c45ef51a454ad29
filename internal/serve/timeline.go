package serve

import (
	"container/list"
	"sync"

	"repro/internal/adt"
	"repro/internal/profile"
	"repro/internal/ring"
)

// timeline is everything the server retains about one container instance:
// identity, lifetime totals, and a bounded ring of its most recent windows.
// Memory per timeline is capped by the ring, memory across timelines by the
// store's LRU — a misbehaving client streaming a million instances evicts
// its own history instead of growing the process.
type timeline struct {
	key      string
	context  string
	instance int
	kind     adt.Kind

	windows    int    // windows ever ingested for this instance
	ops        uint64 // interface invocations those windows covered
	lastSeq    int
	outOfOrder int // windows whose seq did not advance

	// touch is the server-wide recency stamp of the last ingest into this
	// timeline. The list order below is recency within one store; touch is
	// what lets the dashboard merge many per-shard stores into one global
	// most-recently-active order.
	touch uint64

	recent ring.Ring[profile.WindowRecord] // guarded by the store's lock
}

// timelineStore is the bounded per-instance window retention behind
// /v1/profiles: an LRU over instance keys, each holding a bounded ring of
// recent windows. All methods are safe for concurrent use.
type timelineStore struct {
	mu          sync.Mutex
	maxInst     int
	ringSize    int
	order       *list.List // front = most recently touched
	items       map[string]*list.Element
	evictions   uint64
	totalWin    uint64
	totalOutOfO uint64
}

func newTimelineStore(maxInstances, ringSize int) *timelineStore {
	return &timelineStore{
		maxInst:  maxInstances,
		ringSize: ringSize,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

// addOutcome reports everything one ingest changed, so the caller can keep
// incremental per-kind aggregates (the /v1/rollup state) in lockstep with
// the store: instance creations and evictions move instance counts,
// kind changes are observed migrations.
type addOutcome struct {
	outOfOrder  bool
	isNew       bool     // a timeline was created for this instance
	kindChanged bool     // the instance's backend changed mid-timeline
	prevKind    adt.Kind // valid when kindChanged
	evicted     bool     // a timeline was evicted to make room
	evictedKey  string   // valid when evicted
	evictedKind adt.Kind // valid when evicted
}

// add ingests one window into its instance's timeline, creating (and, at
// the bound, evicting) as needed, stamping the timeline with the caller's
// recency stamp.
func (s *timelineStore) add(w *profile.WindowRecord, touch uint64) addOutcome {
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
			kind:     w.Kind,
			lastSeq:  -1,
			recent:   ring.New[profile.WindowRecord](s.ringSize),
		}
		el = s.order.PushFront(tl)
		s.items[key] = el
		out.isNew = true
		if len(s.items) > s.maxInst {
			oldest := s.order.Back()
			s.order.Remove(oldest)
			victim := oldest.Value.(*timeline)
			delete(s.items, victim.key)
			s.evictions++
			out.evicted = true
			out.evictedKey = victim.key
			out.evictedKind = victim.kind
		}
	} else {
		s.order.MoveToFront(el)
	}
	tl := el.Value.(*timeline)
	tl.touch = touch
	if tl.windows > 0 && w.Seq <= tl.lastSeq {
		tl.outOfOrder++
		s.totalOutOfO++
		out.outOfOrder = true
	}
	if w.Seq > tl.lastSeq {
		tl.lastSeq = w.Seq
	}
	if !out.isNew && w.Kind != tl.kind {
		out.kindChanged = true
		out.prevKind = tl.kind
	}
	tl.windows++
	tl.ops += w.Ops()
	tl.kind = w.Kind
	tl.recent.Push(*w)
	s.totalWin++
	return out
}

// timelineView is a consistent copy of one timeline, for rendering.
type timelineView struct {
	Key        string
	Context    string
	Instance   int
	Kind       adt.Kind
	Windows    int
	Ops        uint64
	OutOfOrder int
	Touch      uint64                 // global recency stamp of the last ingest
	Recent     []profile.WindowRecord // oldest first
}

// views returns a copy of every retained timeline, most recently touched
// first (the order a live dashboard wants: active instances on top).
func (s *timelineStore) views() []timelineView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]timelineView, 0, len(s.items))
	for el := s.order.Front(); el != nil; el = el.Next() {
		tl := el.Value.(*timeline)
		out = append(out, timelineView{
			Key:        tl.key,
			Context:    tl.context,
			Instance:   tl.instance,
			Kind:       tl.kind,
			Windows:    tl.windows,
			Ops:        tl.ops,
			OutOfOrder: tl.outOfOrder,
			Touch:      tl.touch,
			Recent:     tl.recent.Items(),
		})
	}
	return out
}
