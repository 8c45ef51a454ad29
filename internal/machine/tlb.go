package machine

import "repro/internal/mem"

// TLB models a fully associative translation lookaside buffer with LRU
// replacement over fixed-size pages. The paper collected TLB miss counts
// among its initial hardware features and found, via feature selection,
// that they rarely affect the best-data-structure decision; the simulator
// includes the TLB so that finding is reproducible rather than assumed.
//
// A translation costs O(1) at any entry count: an open-addressing index maps
// a page to its slot, and the slots form an intrusive doubly linked list in
// recency order, so a hit moves its slot to the front and a miss on a full
// TLB evicts the back. Slots [0, fill) are live, and index buckets are live
// only while their epoch is current, so Reset is O(1) as well.
type TLB struct {
	slots     []tlbSlot
	index     []tlbBucket // power-of-two size, at most a quarter full
	indexBits uint
	fill      int32  // slots in use
	head      int32  // most recently used slot, or -1
	tail      int32  // least recently used slot, or -1
	last      uint64 // page of the previous translation (the memo), or noPage
	epoch     uint8
	pageShift uint
	Accesses  uint64
	Misses    uint64
}

type tlbSlot struct {
	page       uint64
	prev, next int32 // neighbours in recency order, -1 at the ends
}

type tlbBucket struct {
	page  uint64
	slot  int32
	epoch uint8 // the bucket is empty unless this is the TLB's epoch
}

// noPage never equals a page number, so it marks the memo empty.
const noPage = ^uint64(0)

// NewTLB builds a TLB with the given entry count and page size (a power of
// two).
func NewTLB(entries, pageBytes int) *TLB {
	if entries <= 0 || pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("machine: invalid TLB geometry")
	}
	shift := uint(0)
	for 1<<shift < pageBytes {
		shift++
	}
	bits := uint(1)
	for 1<<bits < 4*entries {
		bits++
	}
	return &TLB{
		slots:     make([]tlbSlot, entries),
		index:     make([]tlbBucket, 1<<bits),
		indexBits: bits,
		head:      -1,
		tail:      -1,
		last:      noPage,
		epoch:     1,
		pageShift: shift,
	}
}

// Touch translates addr and returns true on a TLB hit.
//
// A last-page memo sits in front of the index: container accesses are
// strongly page-local, so the previous translation usually resolves this
// one too. The memo's page is always the most recently used, so a memo hit
// leaves the recency order exactly as an index hit would.
func (t *TLB) Touch(addr mem.Addr) bool {
	t.Accesses++
	page := uint64(addr) >> t.pageShift
	if page == t.last {
		return true
	}
	t.last = page
	if b := t.index[t.find(page)]; b.epoch == t.epoch {
		t.unlink(b.slot)
		t.pushFront(b.slot)
		return true
	}
	t.Misses++
	s := t.fill
	if int(s) < len(t.slots) {
		t.fill++
	} else {
		s = t.tail
		t.unlink(s)
		t.remove(t.slots[s].page)
	}
	t.slots[s].page = page
	t.index[t.find(page)] = tlbBucket{page: page, slot: s, epoch: t.epoch}
	t.pushFront(s)
	return false
}

// home returns the bucket page hashes to.
func (t *TLB) home(page uint64) int {
	return int((page * 0x9E3779B97F4A7C15) >> (64 - t.indexBits))
}

// find returns the bucket holding page, or the empty bucket that ends its
// probe sequence.
func (t *TLB) find(page uint64) int {
	mask := len(t.index) - 1
	for i := t.home(page); ; i = (i + 1) & mask {
		if b := &t.index[i]; b.epoch != t.epoch || b.page == page {
			return i
		}
	}
}

// remove deletes a live page from the index, shifting later buckets of the
// probe run back so that no lookup stops early at the hole.
func (t *TLB) remove(page uint64) {
	mask := len(t.index) - 1
	i := t.find(page)
	for j := (i + 1) & mask; t.index[j].epoch == t.epoch; j = (j + 1) & mask {
		// The bucket at j may fill the hole unless its home lies
		// cyclically in (i, j].
		if h := t.home(t.index[j].page); (j-h)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = tlbBucket{}
}

func (t *TLB) unlink(s int32) {
	e := &t.slots[s]
	if e.prev >= 0 {
		t.slots[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.slots[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

func (t *TLB) pushFront(s int32) {
	e := &t.slots[s]
	e.prev, e.next = -1, t.head
	if t.head >= 0 {
		t.slots[t.head].prev = s
	} else {
		t.tail = s
	}
	t.head = s
}

// MissRate returns misses/accesses, or 0 when untouched.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}

// Reset clears contents and statistics in O(1): it empties the slots and
// moves to a new epoch, which empties every index bucket. Only when the
// 8-bit epoch wraps around are the buckets cleared, so that one from 255
// resets ago cannot pass for current.
func (t *TLB) Reset() {
	t.fill, t.head, t.tail = 0, -1, -1
	t.last = noPage
	t.epoch++
	if t.epoch == 0 {
		clear(t.index)
		t.epoch = 1
	}
	t.Accesses = 0
	t.Misses = 0
}
