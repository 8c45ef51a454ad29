package adaptive

import (
	"repro/internal/adt"
	"repro/internal/mem"
	"repro/internal/opstats"
)

// layout says how the two live backends split the logical contents while a
// migration is in flight.
type layout int

const (
	// layoutKeyed: the destination is associative; elements live in exactly
	// one backend and are addressed by key, so arrival order is free.
	layoutKeyed layout = iota
	// layoutPrefix: sequence-to-sequence with the destination holding the
	// logical front. The source drains from its front (an O(1) pop for
	// list/deque) and drained elements append to the destination — the
	// layout used when the destination is a vector, whose appends are O(1)
	// but prepends shift.
	layoutPrefix
	// layoutSuffix: sequence-to-sequence with the destination holding the
	// logical tail. The source drains from its back (O(1) for every
	// sequence, including vector) and drained elements prepend to the
	// destination — the layout for destinations with O(1) prepends.
	layoutSuffix
)

// migrator is an adt.Container hosting one active backend plus, while a
// migration is in flight, the destination backend it is incrementally
// draining into. Every interface operation routes to the backend(s) that
// own the affected elements, then moves a bounded batch — so migration cost
// is amortized across the operations that follow the decision, and the
// container answers every query correctly mid-move.
type migrator struct {
	model    mem.Model
	elemSize uint64

	cur adt.Drainer // active backend; the source while migrating
	dst adt.Drainer // nil when no migration is in flight
	lay layout

	batch  int  // elements moved per interface operation
	moved  int  // elements moved so far in the current migration
	done   bool // source fully drained; host must finalize
	merged opstats.Stats
}

// Kind reports the active backend's kind: the source until the host
// finalizes the swap, the destination after.
func (g *migrator) Kind() adt.Kind { return g.cur.Kind() }

func (g *migrator) migrating() bool { return g.dst != nil }

// begin opens a migration to kind. The caller has already checked
// legality (adt.CanReplace) and that no migration is in flight.
func (g *migrator) begin(to adt.Kind) {
	g.dst = adt.New(to, g.model, g.elemSize)
	switch {
	case !to.IsAssociative():
		if to == adt.KindVector {
			g.lay = layoutPrefix
		} else {
			g.lay = layoutSuffix
		}
	default:
		g.lay = layoutKeyed
	}
	g.moved = 0
	g.done = g.cur.Len() == 0
}

// step moves up to one batch of elements from the source to the
// destination, flagging completion when the source runs dry.
func (g *migrator) step() {
	if g.dst == nil || g.done {
		return
	}
	for i := 0; i < g.batch; i++ {
		var k uint64
		var ok bool
		switch g.lay {
		case layoutPrefix:
			if k, ok = g.cur.DrainFront(); ok {
				g.dst.Insert(k)
			}
		case layoutSuffix:
			if k, ok = g.cur.DrainBack(); ok {
				g.dst.PushFront(k)
			}
		default:
			if k, ok = g.cur.DrainBack(); ok {
				g.dst.Insert(k)
			}
		}
		if !ok {
			break
		}
		g.moved++
	}
	if g.cur.Len() == 0 {
		g.done = true
	}
}

// finalize retires the drained source and promotes the destination to the
// active backend, returning how many elements the migration moved. The
// host must flush its profiling window before calling this and re-anchor it
// after: the merged statistics leave with the source.
func (g *migrator) finalize() int {
	g.cur = g.dst
	g.dst = nil
	g.done = false
	return g.moved
}

func (g *migrator) Insert(key uint64) {
	switch {
	case g.dst == nil:
		g.cur.Insert(key)
	case g.lay == layoutPrefix:
		g.cur.Insert(key) // the logical tail is the source's end
	case g.lay == layoutSuffix:
		g.dst.Insert(key) // the logical tail is the destination's end
	default:
		// Keyed semantics: a key already present anywhere must not gain a
		// second copy.
		if !g.cur.Find(key) {
			g.dst.Insert(key)
		}
	}
	g.step()
}

func (g *migrator) InsertAt(pos int, key uint64) {
	switch {
	case g.dst == nil:
		g.cur.InsertAt(pos, key)
	case g.lay == layoutPrefix:
		if dl := g.dst.Len(); pos < dl {
			g.dst.InsertAt(pos, key)
		} else {
			g.cur.InsertAt(pos-dl, key)
		}
	case g.lay == layoutSuffix:
		if sl := g.cur.Len(); pos <= sl {
			g.cur.InsertAt(pos, key)
		} else {
			g.dst.InsertAt(pos-sl, key)
		}
	default:
		if !g.cur.Find(key) {
			g.dst.Insert(key) // associative: position is ignored
		}
	}
	g.step()
}

func (g *migrator) PushFront(key uint64) {
	switch {
	case g.dst == nil:
		g.cur.PushFront(key)
	case g.lay == layoutPrefix:
		g.dst.PushFront(key)
	case g.lay == layoutSuffix:
		g.cur.PushFront(key)
	default:
		if !g.cur.Find(key) {
			g.dst.Insert(key)
		}
	}
	g.step()
}

func (g *migrator) Erase(key uint64) bool {
	var ok bool
	switch {
	case g.dst == nil:
		ok = g.cur.Erase(key)
	case g.lay == layoutPrefix:
		// First occurrence in logical order: the destination holds the
		// prefix.
		ok = g.dst.Erase(key) || g.cur.Erase(key)
	case g.lay == layoutSuffix:
		ok = g.cur.Erase(key) || g.dst.Erase(key)
	default:
		// One copy lives in exactly one backend; new-then-old.
		ok = g.dst.Erase(key) || g.cur.Erase(key)
	}
	g.step()
	return ok
}

func (g *migrator) EraseFront() bool {
	var ok bool
	switch {
	case g.dst == nil:
		ok = g.cur.EraseFront()
	case g.lay == layoutPrefix:
		if g.dst.Len() > 0 {
			ok = g.dst.EraseFront()
		} else {
			ok = g.cur.EraseFront()
		}
	case g.lay == layoutSuffix:
		if g.cur.Len() > 0 {
			ok = g.cur.EraseFront()
		} else {
			ok = g.dst.EraseFront()
		}
	default:
		ok = g.eraseFrontKeyed()
	}
	g.step()
	return ok
}

// eraseFrontKeyed removes what a static container of the destination's kind
// would: the global minimum when both backends iterate in sorted order
// (Iterate(1) reads each side's minimum), otherwise the destination's own
// victim — hash tables make EraseFront implementation-defined anyway.
func (g *migrator) eraseFrontKeyed() bool {
	if g.cur.Kind().IsSorted() && g.dst.Kind().IsSorted() && g.cur.Len() > 0 && g.dst.Len() > 0 {
		cm, dm := g.cur.Iterate(1), g.dst.Iterate(1)
		if cm <= dm {
			return g.cur.Erase(cm)
		}
		return g.dst.Erase(dm)
	}
	if g.dst.Len() > 0 {
		return g.dst.EraseFront()
	}
	return g.cur.EraseFront()
}

func (g *migrator) Find(key uint64) bool {
	var ok bool
	if g.dst == nil {
		ok = g.cur.Find(key)
	} else {
		ok = g.dst.Find(key) || g.cur.Find(key) // new-then-old
	}
	g.step()
	return ok
}

func (g *migrator) Iterate(n int) uint64 {
	var sum uint64
	switch {
	case g.dst == nil:
		sum = g.cur.Iterate(n)
	case g.lay == layoutPrefix, g.lay == layoutKeyed:
		// Logical order dst ++ cur. For the keyed layout a partial visit is
		// implementation-defined (the latitude hash kinds already have);
		// full iteration sums both sides exactly.
		if n < 0 {
			sum = g.dst.Iterate(-1) + g.cur.Iterate(-1)
		} else if dl := g.dst.Len(); n <= dl {
			sum = g.dst.Iterate(n)
		} else {
			sum = g.dst.Iterate(-1) + g.cur.Iterate(n-dl)
		}
	default: // layoutSuffix: logical order cur ++ dst
		if n < 0 {
			sum = g.cur.Iterate(-1) + g.dst.Iterate(-1)
		} else if sl := g.cur.Len(); n <= sl {
			sum = g.cur.Iterate(n)
		} else {
			sum = g.cur.Iterate(-1) + g.dst.Iterate(n-sl)
		}
	}
	g.step()
	return sum
}

func (g *migrator) Len() int {
	if g.dst == nil {
		return g.cur.Len()
	}
	return g.cur.Len() + g.dst.Len()
}

func (g *migrator) Clear() {
	g.cur.Clear()
	if g.dst != nil {
		g.dst.Clear()
		g.done = true // nothing left to move; host finalizes the swap
	}
}

// Stats returns the active backend's statistics, or — while both backends
// are live — their monotone merge, so windowed delta profiling never sees a
// counter step backwards mid-migration.
func (g *migrator) Stats() *opstats.Stats {
	if g.dst == nil {
		return g.cur.Stats()
	}
	g.merged = *g.cur.Stats()
	g.merged.Add(*g.dst.Stats())
	return &g.merged
}
