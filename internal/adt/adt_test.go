package adt

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/opstats"
)

func allKinds() []Kind {
	ks := make([]Kind, 0, int(NumKinds))
	for k := Kind(0); k < NumKinds; k++ {
		ks = append(ks, k)
	}
	return ks
}

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range allKinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v err %v", k, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind accepted bogus name")
	}
}

func TestFamilyPredicates(t *testing.T) {
	seq := map[Kind]bool{KindVector: true, KindList: true, KindDeque: true}
	for _, k := range allKinds() {
		if k.IsSequence() != seq[k] {
			t.Fatalf("%v IsSequence = %v", k, k.IsSequence())
		}
		if k.IsAssociative() == seq[k] {
			t.Fatalf("%v IsAssociative = %v", k, k.IsAssociative())
		}
	}
	if !KindHashMap.IsMapKind() || KindHashSet.IsMapKind() {
		t.Fatal("IsMapKind wrong")
	}
}

func TestBasicSemanticsEveryKind(t *testing.T) {
	for _, k := range allKinds() {
		c := New(k, nil, 8)
		if c.Kind() != k {
			t.Fatalf("%v: Kind() = %v", k, c.Kind())
		}
		for i := uint64(1); i <= 50; i++ {
			c.Insert(i)
		}
		if c.Len() != 50 {
			t.Fatalf("%v: Len = %d, want 50", k, c.Len())
		}
		if !c.Find(25) {
			t.Fatalf("%v: Find(25) failed", k)
		}
		if c.Find(999) {
			t.Fatalf("%v: Find(999) succeeded", k)
		}
		if !c.Erase(25) {
			t.Fatalf("%v: Erase(25) failed", k)
		}
		if c.Find(25) {
			t.Fatalf("%v: Find(25) after erase", k)
		}
		if c.Erase(25) {
			t.Fatalf("%v: double erase succeeded", k)
		}
		if !c.EraseFront() {
			t.Fatalf("%v: EraseFront failed", k)
		}
		if c.Len() != 48 {
			t.Fatalf("%v: Len = %d, want 48", k, c.Len())
		}
		sum := c.Iterate(-1)
		if sum == 0 {
			t.Fatalf("%v: Iterate produced no checksum", k)
		}
		c.Clear()
		if c.Len() != 0 {
			t.Fatalf("%v: Clear left elements", k)
		}
		if c.EraseFront() {
			t.Fatalf("%v: EraseFront on empty succeeded", k)
		}
	}
}

func TestSequenceOrderPreserved(t *testing.T) {
	for _, k := range []Kind{KindVector, KindList, KindDeque} {
		c := New(k, nil, 8)
		c.Insert(2)
		c.PushFront(1)
		c.Insert(3)
		c.InsertAt(1, 9) // 1 9 2 3
		// Iterate(1) must visit the true front element.
		if got := c.Iterate(1); got != 1 {
			t.Fatalf("%v: front = %d, want 1", k, got)
		}
		if got := c.Iterate(-1); got != 1+9+2+3 {
			t.Fatalf("%v: checksum = %d", k, got)
		}
	}
}

func TestAssociativeEraseFrontRemovesMin(t *testing.T) {
	for _, k := range allKinds() {
		if !k.IsSorted() {
			continue
		}
		c := New(k, nil, 8)
		for _, x := range []uint64{50, 10, 30} {
			c.Insert(x)
		}
		c.EraseFront()
		if c.Find(10) {
			t.Fatalf("%v: min not removed", k)
		}
		if !c.Find(30) || !c.Find(50) {
			t.Fatalf("%v: wrong element removed", k)
		}
	}
}

func TestDuplicateInsertAssociativeVsSequence(t *testing.T) {
	s := New(KindSet, nil, 8)
	s.Insert(5)
	s.Insert(5)
	if s.Len() != 1 {
		t.Fatalf("set length with duplicate = %d", s.Len())
	}
	v := New(KindVector, nil, 8)
	v.Insert(5)
	v.Insert(5)
	if v.Len() != 2 {
		t.Fatalf("vector length with duplicate = %d", v.Len())
	}
}

func TestCandidatesRespectOrderAwareness(t *testing.T) {
	aware := Candidates(KindVector, true)
	if len(aware) != 2 { // list, deque
		t.Fatalf("order-aware vector candidates = %v", aware)
	}
	for _, k := range aware {
		if k.IsAssociative() {
			t.Fatalf("order-aware vector may not become %v", k)
		}
	}
	obliv := Candidates(KindVector, false)
	if len(obliv) != 8 {
		t.Fatalf("order-oblivious vector candidates = %v", obliv)
	}
	setCands := Candidates(KindSet, true)
	want := map[Kind]bool{KindAVLSet: true, KindSplaySet: true, KindBTreeSet: true, KindSortedVec: true, KindFlatBTreeSet: true}
	if len(setCands) != 5 {
		t.Fatalf("order-aware set candidates = %v", setCands)
	}
	for _, k := range setCands {
		if !want[k] {
			t.Fatalf("unexpected order-aware set candidate %v", k)
		}
	}
	mapCands := Candidates(KindMap, false)
	if len(mapCands) != 5 {
		t.Fatalf("map candidates = %v", mapCands)
	}
}

func TestCanReplaceMatchesMatrix(t *testing.T) {
	if !CanReplace(KindVector, KindHashSet, false) {
		t.Fatal("vector -> hash_set must be legal when order-oblivious")
	}
	if CanReplace(KindVector, KindHashSet, true) {
		t.Fatal("vector -> hash_set must be illegal when order-aware")
	}
	if !CanReplace(KindSet, KindBTreeSet, true) {
		t.Fatal("set -> btree_set preserves sorted iteration order")
	}
	if CanReplace(KindHashSet, KindVector, false) {
		t.Fatal("no hash_set -> vector row exists")
	}
	if !CanReplace(KindHashSet, KindFlatHashSet, true) {
		t.Fatal("hash_set -> flat_hash_set preserves hash-order obliviousness")
	}
	if !CanReplace(KindFlatHashSet, KindHashSet, true) {
		t.Fatal("flat_hash_set must be able to migrate back out")
	}
	if CanReplace(KindFlatBTreeSet, KindVector, true) {
		t.Fatal("flat_btree_set -> vector must be order-oblivious only")
	}
}

func TestCandidatesWithOriginalPrependsSelf(t *testing.T) {
	c := CandidatesWithOriginal(KindList, false)
	if c[0] != KindList || len(c) != 9 {
		t.Fatalf("candidates = %v", c)
	}
}

func TestTargetsCoverPaperModels(t *testing.T) {
	ts := Targets()
	if len(ts) != 7 {
		t.Fatalf("targets = %v", ts)
	}
	seen := map[string]bool{}
	for _, mt := range ts {
		seen[mt.Kind.String()+orderSuffix(mt.OrderAware)] = true
	}
	for _, want := range []string{"vector:aware", "vector:oblivious", "list:aware", "list:oblivious", "set:aware", "set:oblivious", "map:oblivious"} {
		if !seen[want] {
			t.Fatalf("missing model target %s (have %v)", want, seen)
		}
	}
}

func orderSuffix(aware bool) string {
	if aware {
		return ":aware"
	}
	return ":oblivious"
}

// TestSameOpsDifferentCosts checks the core premise: identical ADT-level
// behaviour produces different simulated cycle counts per implementation,
// and the ordering is sane for a find-heavy workload (hash < tree < linear
// scan at size 10k).
func TestSameOpsDifferentCosts(t *testing.T) {
	run := func(k Kind) float64 {
		m := machine.New(machine.Core2())
		c := New(k, m, 8)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 10000; i++ {
			c.Insert(uint64(rng.Intn(1 << 40)))
		}
		rng2 := rand.New(rand.NewSource(12))
		for i := 0; i < 2000; i++ {
			c.Find(uint64(rng2.Intn(1 << 40)))
		}
		return m.Cycles()
	}
	vec, set, hash := run(KindVector), run(KindSet), run(KindHashSet)
	if !(hash < set && set < vec) {
		t.Fatalf("find-heavy ordering wrong: hash=%.0f set=%.0f vector=%.0f", hash, set, vec)
	}
}

// TestIterationFavorsVector checks the complementary premise: pure
// iteration favours the contiguous container over pointer chasing.
func TestIterationFavorsVector(t *testing.T) {
	run := func(k Kind) float64 {
		m := machine.New(machine.Core2())
		c := New(k, m, 8)
		for i := uint64(0); i < 20000; i++ {
			c.Insert(i)
		}
		start := m.Cycles()
		for r := 0; r < 10; r++ {
			c.Iterate(-1)
		}
		return m.Cycles() - start
	}
	if vec, lst := run(KindVector), run(KindList); vec >= lst {
		t.Fatalf("iteration: vector=%.0f not cheaper than list=%.0f", vec, lst)
	}
}

func TestStatsFlowThroughADT(t *testing.T) {
	c := New(KindVector, nil, 8)
	for i := uint64(0); i < 10; i++ {
		c.Insert(i)
	}
	c.Find(5)
	st := c.Stats()
	if st.Count[opstats.OpPushBack] != 10 || st.Count[opstats.OpFind] != 1 {
		t.Fatalf("stats: %+v", st.Count)
	}
}

func TestInvalidKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(NumKinds) did not panic")
		}
	}()
	New(NumKinds, nil, 8)
}

// TestScansDoNotAllocate: Find, Erase and Iterate hand the backend a
// callback; the adapters must not allocate one per call, or every profiled
// operation would.
func TestScansDoNotAllocate(t *testing.T) {
	for _, k := range allKinds() {
		c := New(k, machine.New(machine.Core2()), 8)
		for i := uint64(0); i < 256; i++ {
			c.Insert(i)
		}
		key := uint64(0)
		if n := testing.AllocsPerRun(200, func() {
			c.Find(key)
			c.Erase(key + 1000)
			c.Iterate(8)
			key++
		}); n != 0 {
			t.Errorf("%v: Find+Erase+Iterate allocated %v times per run", k, n)
		}
	}
}
