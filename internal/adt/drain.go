package adt

// Drainer is a Container that can also remove one element and hand its key
// back, so an adaptive host can move contents between two live backends
// without enumerating through the Container interface (Iterate only exposes
// checksums). Every container New returns is a Drainer.
//
// DrainFront and DrainBack take the corresponding end of a sequence — the
// caller picks the end that keeps the move O(1) on its pair of backends.
// Associative backends have no meaningful ends for a keyed destination, so
// both methods take the cheapest victim: the minimum for trees, the maximum
// for the sorted vector and the flat B+-tree (no shift), an arbitrary
// element for hash tables. Like any other interface call, draining records
// operations in the backend's Stats — migration traffic is real container
// work and is attributed as such.
type Drainer interface {
	Container
	DrainFront() (uint64, bool)
	DrainBack() (uint64, bool)
}

func (a *seqADT) DrainFront() (uint64, bool) {
	if a.vec == nil {
		return a.pop.PopFront()
	}
	if a.vec.Len() == 0 {
		return 0, false
	}
	k := a.vec.At(0)
	a.vec.Erase(0)
	return k, true
}
func (a *seqADT) DrainBack() (uint64, bool) { return a.s.PopBack() }

func (a *keyedADT) DrainFront() (uint64, bool) {
	k, ok := a.drain()
	if ok {
		a.b.Erase(k)
	}
	return k, ok
}
func (a *keyedADT) DrainBack() (uint64, bool) { return a.DrainFront() }
