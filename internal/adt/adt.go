// Package adt presents every container behind one abstract data type, the
// role the C++ template parameter plays in the paper's application
// generator (Section 4.2): a synthetic application is written once against
// the ADT and instantiated with each interchangeable implementation, so the
// only difference between the variants is the data structure.
//
// The package also encodes the replacement matrix of Table 1, including the
// order-obliviousness restriction: associative containers iterate in sorted
// (or hash) order, so they may only replace a sequence when the application
// never relies on insertion order.
package adt

import (
	"fmt"

	"repro/internal/containers/avltree"
	"repro/internal/containers/btree"
	"repro/internal/containers/deque"
	"repro/internal/containers/flatbtree"
	"repro/internal/containers/flathash"
	"repro/internal/containers/hashtable"
	"repro/internal/containers/list"
	"repro/internal/containers/rbtree"
	"repro/internal/containers/sortedvec"
	"repro/internal/containers/splaytree"
	"repro/internal/containers/vector"
	"repro/internal/mem"
	"repro/internal/opstats"
)

// Kind identifies a container implementation.
type Kind int

// The implementations of the paper's Table 1, plus the splay-tree,
// B-tree, and sorted-vector extensions. Map kinds reuse the set
// implementations with a key+value payload. New kinds append before
// NumKinds so the integer values of existing kinds — serialized inside
// trained model registries — never move.
const (
	KindVector Kind = iota
	KindList
	KindDeque
	KindSet     // red-black tree
	KindAVLSet  // AVL tree
	KindHashSet // chained hash table
	KindSplaySet
	KindMap // red-black tree, key+value payload
	KindAVLMap
	KindHashMap
	KindBTreeSet     // cache-conscious B-tree
	KindSortedVec    // sorted dynamic array, binary search
	KindBTreeMap     // B-tree, key+value payload
	KindFlatBTreeSet // arena-backed SoA B+-tree
	KindFlatHashSet  // open-addressing robin-hood flat hash table
	KindFlatBTreeMap // flat B+-tree, key+value payload
	KindFlatHashMap  // flat hash table, key+value payload
	NumKinds
)

var kindNames = [NumKinds]string{
	"vector", "list", "deque",
	"set", "avl_set", "hash_set", "splay_set",
	"map", "avl_map", "hash_map",
	"btree_set", "sorted_vec", "btree_map",
	"flat_btree_set", "flat_hash_set", "flat_btree_map", "flat_hash_map",
}

// String returns the STL-style name of the kind.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind returns the Kind named s.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("adt: unknown container kind %q", s)
}

// IsSequence reports whether the kind preserves insertion order.
func (k Kind) IsSequence() bool {
	return k == KindVector || k == KindList || k == KindDeque
}

// IsAssociative reports whether the kind stores unique keys.
func (k Kind) IsAssociative() bool { return k >= KindSet && k < NumKinds }

// IsSorted reports whether the kind keeps its keys in sorted order, so that
// EraseFront removes the minimum: every associative kind but the hash
// tables, chained and flat, whose victim is the first occupied slot.
func (k Kind) IsSorted() bool {
	switch k {
	case KindHashSet, KindHashMap, KindFlatHashSet, KindFlatHashMap:
		return false
	}
	return k.IsAssociative()
}

// IsMapKind reports whether the kind carries a key+value payload.
func (k Kind) IsMapKind() bool {
	return k == KindMap || k == KindAVLMap || k == KindHashMap || k == KindBTreeMap ||
		k == KindFlatBTreeMap || k == KindFlatHashMap
}

// IsFlat reports whether the kind stores elements in contiguous arena-backed
// regions rather than per-node heap cells — the cache-conscious backends the
// drift rules prefer on miss-heavy profiles.
func (k Kind) IsFlat() bool {
	return k == KindFlatBTreeSet || k == KindFlatHashSet ||
		k == KindFlatBTreeMap || k == KindFlatHashMap
}

// Container is the abstract data type the synthetic applications and the
// real workloads drive. Keys are uint64; the simulated element size is set
// at construction and may exceed 8 bytes to model large records.
//
// Semantics across families:
//   - Insert appends for sequences and does a keyed insert for associative
//     containers.
//   - InsertAt inserts before a position for sequences; associative
//     containers ignore the position.
//   - PushFront prepends for sequences (an O(n) shift for vector); for
//     associative containers it degenerates to Insert.
//   - Erase removes the first element equal to key (search + unlink for
//     sequences, keyed removal for associative containers).
//   - EraseFront removes the first element (the smallest key for trees, an
//     arbitrary one for hash tables).
//   - Find reports membership; Iterate visits up to n elements in the
//     container's natural order.
type Container interface {
	Kind() Kind
	Insert(key uint64)
	InsertAt(pos int, key uint64)
	PushFront(key uint64)
	Erase(key uint64) bool
	EraseFront() bool
	Find(key uint64) bool
	Iterate(n int) uint64
	Len() int
	Clear()
	Stats() *opstats.Stats
}

// New constructs a container of the given kind bound to model, with the
// given simulated element size in bytes. It is the one place that states
// the per-kind choices: which backend, how a vector reaches its front, and
// which key a keyed backend gives up first.
func New(kind Kind, model mem.Model, elemSize uint64) Drainer {
	p := newProbe()
	switch kind {
	case KindVector:
		v := vector.New[uint64](model, elemSize)
		return &seqADT{probe: p, kind: kind, s: v, vec: v}
	case KindList:
		l := list.New[uint64](model, elemSize)
		return &seqADT{probe: p, kind: kind, s: l, pop: l}
	case KindDeque:
		d := deque.New[uint64](model, elemSize)
		return &seqADT{probe: p, kind: kind, s: d, pop: d}
	case KindSet, KindMap:
		t := rbtree.New[uint64, struct{}](model, elemSize)
		return &keyedADT{probe: p, kind: kind, b: newKeysOf(t), first: t.Min, drain: t.Min}
	case KindAVLSet, KindAVLMap:
		t := avltree.New[uint64, struct{}](model, elemSize)
		return &keyedADT{probe: p, kind: kind, b: newKeysOf(t), first: t.Min, drain: t.Min}
	case KindHashSet, KindHashMap:
		t := hashtable.New[uint64, struct{}](model, elemSize, hashtable.HashUint64)
		return &keyedADT{probe: p, kind: kind, b: newKeysOf(t), first: t.First, drain: t.First}
	case KindSplaySet:
		t := splaytree.New[uint64, struct{}](model, elemSize)
		return &keyedADT{probe: p, kind: kind, b: newKeysOf(t), first: t.Min, drain: t.Min}
	case KindBTreeSet, KindBTreeMap:
		t := btree.New[uint64, struct{}](model, elemSize)
		return &keyedADT{probe: p, kind: kind, b: newKeysOf(t), first: t.Min, drain: t.Min}
	case KindSortedVec:
		s := sortedvec.New[uint64](model, elemSize)
		return &keyedADT{probe: p, kind: kind, b: s, first: s.Min, drain: s.Max} // max pops without shifting the array
	case KindFlatBTreeSet, KindFlatBTreeMap:
		t := flatbtree.New(model, elemSize)
		return &keyedADT{probe: p, kind: kind, b: t, first: t.Min, drain: t.Max} // max leaves the rightmost leaf without a shift
	case KindFlatHashSet, KindFlatHashMap:
		t := flathash.New(model, elemSize)
		return &keyedADT{probe: p, kind: kind, b: t, first: t.First, drain: t.First}
	default:
		panic(fmt.Sprintf("adt: invalid kind %d", kind))
	}
}

// Replacement describes one row of Table 1.
type Replacement struct {
	From, To       Kind
	Benefit        string
	OrderOblivious bool // legal only when the app never relies on insertion order
}

// Replacements is the full replacement matrix of Table 1, extended with the
// splay-tree, B-tree, and sorted-vector alternatives. B-tree and sorted
// vector iterate in sorted order like set, so replacing set with either
// preserves iteration order; replacing a sequence with them is
// order-oblivious like the other associative targets.
var Replacements = []Replacement{
	{KindVector, KindList, "fast insertion", false},
	{KindVector, KindDeque, "fast insertion", false},
	{KindVector, KindSet, "fast search", true},
	{KindVector, KindAVLSet, "fast search", true},
	{KindVector, KindHashSet, "fast insertion & search", true},
	{KindVector, KindSortedVec, "fast search, contiguous", true},
	{KindVector, KindFlatBTreeSet, "fast search, flat layout", true},
	{KindVector, KindFlatHashSet, "fast insertion & search, flat layout", true},

	{KindList, KindVector, "fast iteration", false},
	{KindList, KindDeque, "fast iteration", false},
	{KindList, KindSet, "fast search", true},
	{KindList, KindAVLSet, "fast search", true},
	{KindList, KindHashSet, "fast search", true},
	{KindList, KindSortedVec, "fast search, contiguous", true},
	{KindList, KindFlatBTreeSet, "fast search, flat layout", true},
	{KindList, KindFlatHashSet, "fast search, flat layout", true},

	{KindSet, KindAVLSet, "fast search", false},
	{KindSet, KindSplaySet, "fast skewed search", false},
	{KindSet, KindBTreeSet, "fast search, cache-conscious", false},
	{KindSet, KindSortedVec, "fast search & iteration, contiguous", false},
	{KindSet, KindFlatBTreeSet, "fast search at large sizes, flat layout", false},
	{KindSet, KindVector, "fast iteration", true},
	{KindSet, KindList, "fast insertion & deletion", true},
	{KindSet, KindHashSet, "fast insertion & search", true},
	{KindSet, KindFlatHashSet, "fast insertion & search, flat layout", true},

	{KindHashSet, KindFlatHashSet, "fast search at large sizes, flat layout", false},
	{KindBTreeSet, KindFlatBTreeSet, "fast search at large sizes, flat layout", false},

	// Exits from the flat kinds, so a phase change can migrate back out.
	{KindFlatBTreeSet, KindSet, "fast small-size updates", false},
	{KindFlatBTreeSet, KindBTreeSet, "fast small-size updates", false},
	{KindFlatBTreeSet, KindFlatHashSet, "fast insertion & search", true},
	{KindFlatBTreeSet, KindVector, "fast iteration", true},
	{KindFlatHashSet, KindHashSet, "fast small-size updates", false},
	{KindFlatHashSet, KindFlatBTreeSet, "sorted iteration, flat layout", false},
	{KindFlatHashSet, KindVector, "fast iteration", true},

	{KindMap, KindAVLMap, "fast search", false},
	{KindMap, KindHashMap, "fast insertion & search", false},
	{KindMap, KindBTreeMap, "fast search, cache-conscious", false},
	{KindMap, KindFlatBTreeMap, "fast search at large sizes, flat layout", false},
	{KindMap, KindFlatHashMap, "fast insertion & search, flat layout", false},
	{KindHashMap, KindFlatHashMap, "fast search at large sizes, flat layout", false},
	{KindBTreeMap, KindFlatBTreeMap, "fast search at large sizes, flat layout", false},
	{KindFlatBTreeMap, KindMap, "fast small-size updates", false},
	{KindFlatBTreeMap, KindFlatHashMap, "fast insertion & search", false},
	{KindFlatHashMap, KindHashMap, "fast small-size updates", false},
}

// Candidates returns the legal replacement kinds for from (excluding from
// itself). When orderAware is true, order-oblivious replacements are
// filtered out, matching Table 1's limitation column.
func Candidates(from Kind, orderAware bool) []Kind {
	var out []Kind
	for _, r := range Replacements {
		if r.From != from {
			continue
		}
		if orderAware && r.OrderOblivious {
			continue
		}
		out = append(out, r.To)
	}
	return out
}

// CandidatesWithOriginal returns Candidates plus the original kind itself,
// the choice set the oracle and the models rank.
func CandidatesWithOriginal(from Kind, orderAware bool) []Kind {
	return append([]Kind{from}, Candidates(from, orderAware)...)
}

// CanReplace reports whether the replacement matrix has a row from -> to
// that is legal for the given order-awareness — the check the adaptive
// container runs before hot-migrating a backend.
func CanReplace(from, to Kind, orderAware bool) bool {
	return ReplaceVerdict(from, to, orderAware) == ReplaceOK
}

// Legality verdicts for one replacement, as reported by ReplaceVerdict.
const (
	ReplaceOK              = "ok"               // a legal replacement row exists
	ReplaceNoRule          = "no-rule"          // Table 1 has no row from->to at all
	ReplaceOrderRestricted = "order-restricted" // rows exist but all are order-oblivious
)

// ReplaceVerdict explains CanReplace: it names *why* a replacement is legal
// or not, so decision journals can record the legality verdict instead of a
// bare boolean. CanReplace(from, to, orderAware) is exactly
// ReplaceVerdict(...) == ReplaceOK.
func ReplaceVerdict(from, to Kind, orderAware bool) string {
	found := false
	for _, r := range Replacements {
		if r.From != from || r.To != to {
			continue
		}
		found = true
		if orderAware && r.OrderOblivious {
			continue
		}
		return ReplaceOK
	}
	if found {
		return ReplaceOrderRestricted
	}
	return ReplaceNoRule
}

// ModelTargets lists the original kinds that get their own trained model.
// Order-oblivious vector and list usage get dedicated models (Section 5),
// expressed here as separate targets.
type ModelTarget struct {
	Kind       Kind
	OrderAware bool
}

// Targets enumerates the per-container ANN models Brainy trains: one per
// original data structure, with the order-oblivious sequence variants
// counted separately, mirroring Figure 3 and Table 3.
func Targets() []ModelTarget {
	return []ModelTarget{
		{KindVector, true},
		{KindVector, false},
		{KindList, true},
		{KindList, false},
		{KindSet, true},
		{KindSet, false},
		{KindMap, false},
	}
}

// backend is what every container package provides.
type backend interface {
	Len() int
	Clear()
	Stats() *opstats.Stats
}

// probe holds the callbacks an adapter passes to its backend's scans. They
// are built once per container: a closure made per call would escape
// through the backend interface and allocate on every Find, Erase and
// Iterate.
type probe struct {
	key, sum uint64
	eq       func(uint64) bool // x == key
	add      func(uint64)      // sum += x
}

func newProbe() *probe {
	p := &probe{}
	p.eq = func(x uint64) bool { return x == p.key }
	p.add = func(x uint64) { p.sum += x }
	return p
}

// sequence is the backend shape vector, list and deque share.
type sequence interface {
	backend
	PushBack(x uint64)
	PopBack() (uint64, bool)
	Insert(pos int, x uint64)
	Erase(pos int) bool
	Find(eq func(uint64) bool) int
	FindErase(eq func(uint64) bool) bool
	Iterate(n int, fn func(uint64)) int
}

// poppable is the constant-time front list and deque add to a sequence.
type poppable interface {
	PushFront(x uint64)
	PopFront() (uint64, bool)
}

// seqADT adapts a sequence backend. List and deque pop their front through
// pop; vector has no constant-time front, so New sets vec instead and the
// front is reached by position.
type seqADT struct {
	*probe
	kind Kind
	s    sequence
	pop  poppable
	vec  *vector.Vector[uint64]
}

func (a *seqADT) Kind() Kind                   { return a.kind }
func (a *seqADT) Insert(key uint64)            { a.s.PushBack(key) }
func (a *seqADT) InsertAt(pos int, key uint64) { a.s.Insert(pos, key) }
func (a *seqADT) PushFront(key uint64) {
	if a.vec != nil {
		a.vec.Insert(0, key)
		return
	}
	a.pop.PushFront(key)
}
func (a *seqADT) Erase(key uint64) bool {
	a.key = key
	return a.s.FindErase(a.eq)
}
func (a *seqADT) EraseFront() bool {
	if a.vec != nil {
		if a.vec.Len() == 0 {
			a.vec.Stats().Observe(opstats.OpErase, 0) // interface call on empty container
			return false
		}
		return a.vec.Erase(0)
	}
	_, ok := a.pop.PopFront()
	if !ok {
		a.s.Stats().Observe(opstats.OpPopFront, 0) // interface call on empty container
	}
	return ok
}
func (a *seqADT) Find(key uint64) bool {
	a.key = key
	return a.s.Find(a.eq) >= 0
}
func (a *seqADT) Iterate(n int) uint64 {
	a.sum = 0
	a.s.Iterate(n, a.add)
	return a.sum
}
func (a *seqADT) Len() int              { return a.s.Len() }
func (a *seqADT) Clear()                { a.s.Clear() }
func (a *seqADT) Stats() *opstats.Stats { return a.s.Stats() }

// keyed is the backend shape of sorted_vec and the flat backends.
type keyed interface {
	backend
	Insert(key uint64) bool
	Erase(key uint64) bool
	Contains(key uint64) bool
	Iterate(n int, fn func(uint64)) int
}

// pairs is the key+value shape of the tree and chained-hash packages,
// instantiated with an empty value.
type pairs interface {
	backend
	Insert(key uint64, val struct{}) bool
	Erase(key uint64) bool
	Contains(key uint64) bool
	Iterate(n int, fn func(uint64, struct{})) int
}

// keysOf presents a pairs backend as keyed. Iterate forwards through a
// callback built once, for the reason probe gives.
type keysOf struct {
	pairs
	fn   func(uint64)
	each func(uint64, struct{})
}

func newKeysOf(p pairs) *keysOf {
	k := &keysOf{pairs: p}
	k.each = func(key uint64, _ struct{}) { k.fn(key) }
	return k
}

func (k *keysOf) Insert(key uint64) bool { return k.pairs.Insert(key, struct{}{}) }
func (k *keysOf) Iterate(n int, fn func(uint64)) int {
	k.fn = fn
	return k.pairs.Iterate(n, k.each)
}

// keyedADT adapts an associative backend, which ignores positions.
// EraseFront removes first: the minimum key, or a hash table's first
// occupied slot (IsSorted tells which). A drain removes drain: the same
// key, or the maximum where that leaves without a shift.
type keyedADT struct {
	*probe
	kind         Kind
	b            keyed
	first, drain func() (uint64, bool)
}

func (a *keyedADT) Kind() Kind                 { return a.kind }
func (a *keyedADT) Insert(key uint64)          { a.b.Insert(key) }
func (a *keyedADT) InsertAt(_ int, key uint64) { a.b.Insert(key) }
func (a *keyedADT) PushFront(key uint64)       { a.b.Insert(key) }
func (a *keyedADT) Erase(key uint64) bool      { return a.b.Erase(key) }
func (a *keyedADT) EraseFront() bool {
	k, ok := a.first()
	if !ok {
		a.b.Stats().Observe(opstats.OpErase, 0) // interface call on empty container
		return false
	}
	return a.b.Erase(k)
}
func (a *keyedADT) Find(key uint64) bool { return a.b.Contains(key) }
func (a *keyedADT) Iterate(n int) uint64 {
	a.sum = 0
	a.b.Iterate(n, a.add)
	return a.sum
}
func (a *keyedADT) Len() int              { return a.b.Len() }
func (a *keyedADT) Clear()                { a.b.Clear() }
func (a *keyedADT) Stats() *opstats.Stats { return a.b.Stats() }
