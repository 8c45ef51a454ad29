package machine

import "repro/internal/mem"

// Cache is a set-associative cache with true-LRU replacement. It models a
// single level of the hierarchy; Machine chains an L1 in front of an L2.
//
// The sets are packed: a set's tags lie side by side, so a lookup compares
// them in one or two host cache lines, and the recency stamps lie apart,
// read only to pick a victim in a full set. Which ways hold lines is per-set
// state: ways [0, fill) do, while the set's epoch is the cache's. A new
// epoch therefore empties every set at once, and Reset is O(1).
type Cache struct {
	tags      []uint64   // line addresses, sets*ways, row-major by set
	stamps    []uint64   // per way: the clock when its line last became the set's MRU
	sets      []cacheSet // per set: epoch, fill count, MRU way
	ways      int
	lineShift uint
	setMask   uint64
	clock     uint64
	epoch     uint8
	Accesses  uint64
	Misses    uint64
}

type cacheSet struct {
	epoch uint8 // the set is empty unless this is the cache's epoch
	fill  uint8 // ways [0, fill) hold lines
	mru   uint8 // way of the most recent hit or fill
}

// NewCache builds a cache of the given total size in bytes, associativity
// (at most 255 ways), and line size (both powers of two). It panics on
// invalid geometry because a malformed machine configuration is a
// programming error.
func NewCache(sizeBytes, ways, lineBytes int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("machine: cache geometry must be positive")
	}
	if ways > 255 {
		panic("machine: at most 255 ways")
	}
	if sizeBytes%(ways*lineBytes) != 0 {
		panic("machine: cache size must be a multiple of ways*lineBytes")
	}
	setCount := sizeBytes / (ways * lineBytes)
	if setCount&(setCount-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		panic("machine: set count and line size must be powers of two")
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &Cache{
		tags:      make([]uint64, setCount*ways),
		stamps:    make([]uint64, setCount*ways),
		sets:      make([]cacheSet, setCount),
		ways:      ways,
		lineShift: shift,
		setMask:   uint64(setCount - 1),
		epoch:     1,
	}
}

// LineBytes returns the cache line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Touch accesses the line containing addr and returns true on a hit.
// On a miss the LRU way of the set is replaced.
//
// The most-recently-used way of the set is probed before the tags are
// scanned: container access streams are heavily line-local, so the MRU way
// resolves most hits in one compare. An MRU hit leaves the stamps alone,
// because the MRU way already has the set's newest stamp and only the order
// of stamps within a set decides the victim; the eviction sequence, and
// with it every hit/miss counter, is that of true LRU.
func (c *Cache) Touch(addr mem.Addr) bool {
	c.Accesses++
	lineAddr := uint64(addr) >> c.lineShift // the full line address is the tag
	set := lineAddr & c.setMask
	s := &c.sets[set]
	base := int(set) * c.ways
	if s.epoch == c.epoch && s.mru < s.fill && c.tags[base+int(s.mru)] == lineAddr {
		return true
	}
	return c.touchSet(s, base, lineAddr)
}

// touchSet is Touch past the MRU probe: scan the set's tags, and on a miss
// fill the next empty way or evict the way with the oldest stamp.
func (c *Cache) touchSet(s *cacheSet, base int, lineAddr uint64) bool {
	if s.epoch != c.epoch {
		*s = cacheSet{epoch: c.epoch}
	}
	c.clock++
	for i, tag := range c.tags[base : base+int(s.fill)] {
		if tag == lineAddr {
			c.stamps[base+i] = c.clock
			s.mru = uint8(i)
			return true
		}
	}
	c.Misses++
	way := int(s.fill)
	if way < c.ways {
		s.fill++
	} else {
		stamps := c.stamps[base : base+c.ways]
		way = 0
		oldest := stamps[0]
		for i, st := range stamps {
			if st < oldest {
				oldest, way = st, i
			}
		}
	}
	c.tags[base+way] = lineAddr
	c.stamps[base+way] = c.clock
	s.mru = uint8(way)
	return false
}

// visitLines invokes fn with the aligned base address of every cache line
// overlapped by [addr, addr+size), in ascending order. A size of 0 is
// treated as 1. It is the single line-iteration helper shared by
// Cache.TouchRange and the Machine's straddling-access slow path.
func visitLines(addr mem.Addr, size uint64, lineShift uint, fn func(mem.Addr)) {
	if size == 0 {
		size = 1
	}
	line := uint64(1) << lineShift
	first := uint64(addr) &^ (line - 1)
	last := (uint64(addr) + size - 1) &^ (line - 1)
	for a := first; ; a += line {
		fn(mem.Addr(a))
		if a == last {
			break
		}
	}
}

// TouchRange accesses every line overlapped by [addr, addr+size) and returns
// the number of line accesses and the number of misses among them.
func (c *Cache) TouchRange(addr mem.Addr, size uint64) (lines, misses int) {
	visitLines(addr, size, c.lineShift, func(a mem.Addr) {
		lines++
		if !c.Touch(a) {
			misses++
		}
	})
	return lines, misses
}

// MissRate returns misses/accesses, or 0 when the cache is untouched.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset clears contents and statistics in O(1): a new epoch empties every
// set. Only when the 8-bit epoch wraps around are the sets cleared, so that
// one from 255 resets ago cannot pass for current.
func (c *Cache) Reset() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.sets)
		c.epoch = 1
	}
	c.Accesses = 0
	c.Misses = 0
}
