package machine

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

func TestTLBHitOnSamePage(t *testing.T) {
	tlb := NewTLB(4, 4096)
	if tlb.Touch(0x1000) {
		t.Fatal("cold access hit")
	}
	if !tlb.Touch(0x1FFF) {
		t.Fatal("same-page access missed")
	}
	if tlb.Touch(0x2000) {
		t.Fatal("next-page access hit")
	}
	if tlb.Accesses != 3 || tlb.Misses != 2 {
		t.Fatalf("accesses=%d misses=%d", tlb.Accesses, tlb.Misses)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb := NewTLB(2, 4096)
	tlb.Touch(0 << 12) // page 0
	tlb.Touch(1 << 12) // page 1
	tlb.Touch(0 << 12) // refresh page 0
	tlb.Touch(2 << 12) // evicts page 1 (LRU)
	if !tlb.Touch(0 << 12) {
		t.Fatal("page 0 evicted although MRU")
	}
	if tlb.Touch(1 << 12) {
		t.Fatal("page 1 survived although LRU")
	}
}

func TestTLBGeometryValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewTLB(0, 4096) },
		func() { NewTLB(4, 3000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid geometry accepted")
				}
			}()
			bad()
		}()
	}
}

func TestMachineTLBCountersAndRates(t *testing.T) {
	m := New(Core2())
	base := m.Alloc(16<<20, 64)
	// Touch many distinct pages: TLB misses accumulate.
	for i := 0; i < 1000; i++ {
		m.Read(base+mem.Addr(i*4096), 8)
	}
	c := m.Counters()
	if c.TLBAccesses == 0 {
		t.Fatal("no TLB accesses recorded")
	}
	if c.TLBMissRate() < 0.5 {
		t.Fatalf("page-stride miss rate = %f, want high", c.TLBMissRate())
	}
	// Dense reuse of one page: near-zero miss rate afterwards.
	before := m.Counters()
	for i := 0; i < 1000; i++ {
		m.Read(base+mem.Addr(i%512*8), 8)
	}
	diff := m.Counters().Sub(before)
	if diff.TLBMissRate() > 0.01 {
		t.Fatalf("single-page miss rate = %f", diff.TLBMissRate())
	}
	m.Reset()
	if m.Counters().TLBAccesses != 0 {
		t.Fatal("reset kept TLB counters")
	}
}

func TestPointerChasePaysTLB(t *testing.T) {
	// Scattered accesses across a large footprint should cost more on a
	// machine with a small TLB than page-dense ones of equal count.
	dense := New(Atom())
	base := dense.Alloc(64<<20, 64)
	for i := 0; i < 5000; i++ {
		dense.Read(base+mem.Addr(i%4096), 8)
	}
	sparse := New(Atom())
	base2 := sparse.Alloc(64<<20, 64)
	for i := 0; i < 5000; i++ {
		off := (uint64(i) * 2654435761) % (60 << 20)
		sparse.Read(base2+mem.Addr(off), 8)
	}
	if sparse.Cycles() <= dense.Cycles() {
		t.Fatal("sparse accesses not dearer than dense ones")
	}
}

// TestTouchTLBPageBoundaryCounts pins the TLB access discipline of
// Machine.touch, which the fast path must preserve exactly: one translation
// per access, plus one more for every page boundary the access crosses.
func TestTouchTLBPageBoundaryCounts(t *testing.T) {
	m := New(Core2())
	page := uint64(m.Config().PageBytes)
	line := uint64(m.Config().L1Line)

	// A line-aligned access at a page start: exactly one translation.
	before := m.Counters()
	m.Read(mem.Addr(8*page), 8)
	if d := m.Counters().Sub(before); d.TLBAccesses != 1 {
		t.Fatalf("page-start access made %d TLB accesses, want 1", d.TLBAccesses)
	}

	// An access spanning a page boundary: exactly two translations, one
	// per page, even though it also straddles a cache line.
	before = m.Counters()
	m.Read(mem.Addr(10*page-4), 8)
	if d := m.Counters().Sub(before); d.TLBAccesses != 2 {
		t.Fatalf("page-straddling access made %d TLB accesses, want 2", d.TLBAccesses)
	}

	// A line-straddling access inside one page: still one translation.
	before = m.Counters()
	m.Read(mem.Addr(12*page+line-4), 8)
	if d := m.Counters().Sub(before); d.TLBAccesses != 1 {
		t.Fatalf("line-straddling access made %d TLB accesses, want 1", d.TLBAccesses)
	}

	// A large access covering three pages: three translations.
	before = m.Counters()
	m.Read(mem.Addr(20*page+16), 2*page)
	if d := m.Counters().Sub(before); d.TLBAccesses != 3 {
		t.Fatalf("three-page access made %d TLB accesses, want 3", d.TLBAccesses)
	}
}

// TestTLBMemoDoesNotChangeEviction drives the memoized TLB through an
// eviction-heavy pattern and checks hits and evictions stay exactly those
// of fully associative LRU.
func TestTLBMemoDoesNotChangeEviction(t *testing.T) {
	tlb := NewTLB(4, 4096)
	pageAddr := func(p int) mem.Addr { return mem.Addr(p << 12) }
	// Fill all 4 entries, memo points at page 3.
	for p := 0; p < 4; p++ {
		tlb.Touch(pageAddr(p))
	}
	// Page 4 evicts LRU page 0; memo moves to the filled slot.
	if tlb.Touch(pageAddr(4)) {
		t.Fatal("page 4 hit in a full TLB of pages 0-3")
	}
	if tlb.Touch(pageAddr(0)) {
		t.Fatal("page 0 survived LRU eviction")
	}
	// Page 1 was refreshed neither time; pages 2,3 must still be resident.
	if !tlb.Touch(pageAddr(2)) || !tlb.Touch(pageAddr(3)) {
		t.Fatal("resident pages lost despite LRU order")
	}
}

// scanTLB is the fully associative TLB as a timestamp scan: every entry
// carries the clock of its last use, a miss fills the last invalid entry or
// else evicts the smallest stamp. It is the oracle the TLB must match.
type scanTLB struct {
	entries []scanEntry
	clock   uint64
}

type scanEntry struct {
	page  uint64
	valid bool
	lru   uint64
}

func (t *scanTLB) touch(page uint64) bool {
	t.clock++
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.page == page {
			e.lru = t.clock
			return true
		}
		if !e.valid {
			victim = i
		} else if t.entries[victim].valid && e.lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.entries[victim] = scanEntry{page: page, valid: true, lru: t.clock}
	return false
}

func (t *scanTLB) reset() {
	clear(t.entries)
	t.clock = 0
}

// TestTLBMatchesScanOracle compares the TLB with the timestamp scan, access
// by access, over streams that mix same-page runs, a hot set that fits and
// a cold set that does not, with occasional resets.
func TestTLBMatchesScanOracle(t *testing.T) {
	for _, n := range []int{1, 2, 4, 64, 256} {
		tlb := NewTLB(n, 4096)
		oracle := &scanTLB{entries: make([]scanEntry, n)}
		rng := rand.New(rand.NewSource(int64(n)))
		page := uint64(0)
		for i := 0; i < 200_000; i++ {
			switch r := rng.Intn(100); {
			case r < 30: // stay on the page
			case r < 70:
				page = uint64(rng.Intn(n + n/2 + 1))
			case r < 99:
				page = uint64(rng.Intn(4*n + 8))
			default:
				tlb.Reset()
				oracle.reset()
				continue
			}
			addr := mem.Addr(page<<12 | uint64(rng.Intn(4096)))
			if got, want := tlb.Touch(addr), oracle.touch(page); got != want {
				t.Fatalf("%d entries, access %d (page %d): hit=%v, oracle hit=%v", n, i, page, got, want)
			}
		}
	}
}
