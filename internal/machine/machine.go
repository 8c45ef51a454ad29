// Package machine implements a deterministic microarchitecture simulator.
// It stands in for the two physical systems of the paper (Intel Core2 Q6600
// and Intel Atom N270) and for the PAPI hardware performance counters: every
// container in this repository routes its memory accesses and data-dependent
// branches through a Machine, which models an L1/L2 cache hierarchy and a
// branch predictor and accounts cycles. "Execution time" in all experiments
// is the simulated cycle count, and the hardware features fed to the ANN
// (L1 miss rate, branch misprediction rate, ...) are read from the same
// simulated counters.
package machine

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/mem"
)

// Config describes one microarchitecture.
type Config struct {
	Name string

	L1Size, L1Ways, L1Line int
	L2Size, L2Ways, L2Line int

	PredictorBits uint // log2 of branch-predictor table size
	HistoryBits   uint // global history length

	TLBEntries int // fully associative data-TLB entries
	PageBytes  int

	// Cycle costs.
	BaseOpCycles     float64 // per Read/Write independent of hierarchy
	L1HitCycles      float64
	L2HitCycles      float64
	MemCycles        float64 // L2 miss (DRAM)
	MispredictCycles float64
	BranchCycles     float64 // correctly predicted branch
	AllocCycles      float64 // allocator fast-path cost
	ALUCycles        float64 // cycles per abstract work unit (see mem.Model.Work)
	TLBMissCycles    float64 // page-walk latency on a data-TLB miss
}

// Core2 mirrors the desktop system of Figure 7: Intel Core2 Quad Q6600,
// 32 KB L1 data per core, 4 MB L2, an aggressive out-of-order core that
// hides part of the L1 latency and has a moderate mispredict penalty.
func Core2() Config {
	return Config{
		Name:   "Core2",
		L1Size: 32 << 10, L1Ways: 8, L1Line: 64,
		L2Size: 4 << 20, L2Ways: 16, L2Line: 64,
		PredictorBits: 14, HistoryBits: 12,
		TLBEntries: 256, PageBytes: 4096,
		BaseOpCycles:     1,
		L1HitCycles:      3,
		L2HitCycles:      14,
		MemCycles:        200,
		MispredictCycles: 10, // the OoO window hides part of the refill
		BranchCycles:     0.5,
		AllocCycles:      30,
		ALUCycles:        0.5, // wide out-of-order core retires ~2 simple ops/cycle
		TLBMissCycles:    25,
	}
}

// Atom mirrors the netbook system of Figure 7: Intel Atom N270 (24 KB 6-way
// L1 data cache, 512 KB L2), an in-order core where misses and mispredicts
// hurt more and cannot be hidden.
func Atom() Config {
	return Config{
		Name:   "Atom",
		L1Size: 24 << 10, L1Ways: 6, L1Line: 64,
		L2Size: 512 << 10, L2Ways: 8, L2Line: 64,
		PredictorBits: 12, HistoryBits: 8,
		TLBEntries: 64, PageBytes: 4096,
		BaseOpCycles:     1.4,
		L1HitCycles:      4,
		L2HitCycles:      18,
		MemCycles:        320,
		MispredictCycles: 20, // in-order: the full pipeline refill is exposed
		BranchCycles:     1,
		AllocCycles:      45,
		ALUCycles:        1, // in-order core: one simple op per cycle
		TLBMissCycles:    35,
	}
}

// Counters is a snapshot of the machine's performance counters, the analog
// of one PAPI read-out.
type Counters struct {
	Cycles       float64
	Reads        uint64
	Writes       uint64
	L1Accesses   uint64
	L1Misses     uint64
	L2Accesses   uint64
	L2Misses     uint64
	Branches     uint64
	Mispredicts  uint64
	TLBAccesses  uint64
	TLBMisses    uint64
	Allocs       uint64
	Frees        uint64
	BytesAlloced uint64
}

// L1MissRate returns L1 misses per L1 access.
func (c Counters) L1MissRate() float64 {
	if c.L1Accesses == 0 {
		return 0
	}
	return float64(c.L1Misses) / float64(c.L1Accesses)
}

// L2MissRate returns L2 misses per L2 access.
func (c Counters) L2MissRate() float64 {
	if c.L2Accesses == 0 {
		return 0
	}
	return float64(c.L2Misses) / float64(c.L2Accesses)
}

// TLBMissRate returns TLB misses per access.
func (c Counters) TLBMissRate() float64 {
	if c.TLBAccesses == 0 {
		return 0
	}
	return float64(c.TLBMisses) / float64(c.TLBAccesses)
}

// BranchMissRate returns mispredictions per branch.
func (c Counters) BranchMissRate() float64 {
	if c.Branches == 0 {
		return 0
	}
	return float64(c.Mispredicts) / float64(c.Branches)
}

// Events returns the total number of simulated events behind this
// snapshot — memory operations, branches, and allocator calls. It is the
// denominator of the simulator's events/sec throughput figure and the
// "events" attribute telemetry spans carry.
func (c Counters) Events() uint64 {
	return c.Reads + c.Writes + c.Branches + c.Allocs + c.Frees
}

// Add returns c + o, counter-wise — the aggregation dual of Sub, used to
// fold per-run snapshots into per-stage totals.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Cycles:       c.Cycles + o.Cycles,
		Reads:        c.Reads + o.Reads,
		Writes:       c.Writes + o.Writes,
		L1Accesses:   c.L1Accesses + o.L1Accesses,
		L1Misses:     c.L1Misses + o.L1Misses,
		L2Accesses:   c.L2Accesses + o.L2Accesses,
		L2Misses:     c.L2Misses + o.L2Misses,
		Branches:     c.Branches + o.Branches,
		Mispredicts:  c.Mispredicts + o.Mispredicts,
		TLBAccesses:  c.TLBAccesses + o.TLBAccesses,
		TLBMisses:    c.TLBMisses + o.TLBMisses,
		Allocs:       c.Allocs + o.Allocs,
		Frees:        c.Frees + o.Frees,
		BytesAlloced: c.BytesAlloced + o.BytesAlloced,
	}
}

// IsZero reports whether the snapshot carries no activity at all. Windowed
// consumers (ingestion, drift detection) use it to drop idle windows — a
// client streaming snapshots on a timer can emit deltas in which nothing
// happened, and those carry no signal for the models.
func (c Counters) IsZero() bool { return c == Counters{} }

// Sub returns c - o, counter-wise. Useful for windowed measurements.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Cycles:       c.Cycles - o.Cycles,
		Reads:        c.Reads - o.Reads,
		Writes:       c.Writes - o.Writes,
		L1Accesses:   c.L1Accesses - o.L1Accesses,
		L1Misses:     c.L1Misses - o.L1Misses,
		L2Accesses:   c.L2Accesses - o.L2Accesses,
		L2Misses:     c.L2Misses - o.L2Misses,
		Branches:     c.Branches - o.Branches,
		Mispredicts:  c.Mispredicts - o.Mispredicts,
		TLBAccesses:  c.TLBAccesses - o.TLBAccesses,
		TLBMisses:    c.TLBMisses - o.TLBMisses,
		Allocs:       c.Allocs - o.Allocs,
		Frees:        c.Frees - o.Frees,
		BytesAlloced: c.BytesAlloced - o.BytesAlloced,
	}
}

// ticksPerCycle is the fixed-point scale of the machine's cycle
// accumulator: one tick is a tenth of a cycle. Every cost in the Core2 and
// Atom configurations is a multiple of 0.1 cycles (including the halved
// AllocCycles charged by Free), so the per-event accounting below is exact
// integer arithmetic and Cycles() rounds only once, at read time. A uint64
// of tenths still spans ~1.8e18 cycles, far beyond any simulation here.
const ticksPerCycle = 10

// toTicks converts a Config cost in cycles to integer ticks, rounding to
// the nearest tick for costs finer than the scale.
func toTicks(cycles float64) uint64 {
	return uint64(math.Round(cycles * ticksPerCycle))
}

// Machine simulates one microarchitecture. It implements mem.Model, so a
// container bound to a Machine transparently exercises the simulated
// hierarchy. Machine is not safe for concurrent use; run one Machine per
// goroutine.
type Machine struct {
	cfg  Config
	l1   *Cache
	l2   *Cache
	tlb  *TLB
	bp   *BranchPredictor
	heap allocator

	// Per-event costs in ticks, precomputed so the hot path is free of
	// float64 arithmetic and Config field loads.
	baseOpTicks     uint64
	l1HitTicks      uint64
	l2HitTicks      uint64
	memTicks        uint64
	mispredictTicks uint64
	branchTicks     uint64
	allocTicks      uint64
	freeTicks       uint64
	aluTicks        uint64
	tlbMissTicks    uint64

	lineMask uint64 // L1 line size - 1; accesses inside one line take the fast path
	pageMask uint64 // page size - 1

	ticks  uint64
	reads  uint64
	writes uint64
	allocs uint64
	frees  uint64
	bytes  uint64
}

// New builds a machine from a configuration.
func New(cfg Config) *Machine {
	tlbEntries, pageBytes := cfg.TLBEntries, cfg.PageBytes
	if tlbEntries <= 0 {
		tlbEntries = 64
	}
	if pageBytes <= 0 {
		pageBytes = 4096
	}
	m := &Machine{
		cfg: cfg,
		l1:  NewCache(cfg.L1Size, cfg.L1Ways, cfg.L1Line),
		l2:  NewCache(cfg.L2Size, cfg.L2Ways, cfg.L2Line),
		tlb: NewTLB(tlbEntries, pageBytes),
		bp:  NewBranchPredictor(cfg.PredictorBits, cfg.HistoryBits),

		baseOpTicks:     toTicks(cfg.BaseOpCycles),
		l1HitTicks:      toTicks(cfg.L1HitCycles),
		l2HitTicks:      toTicks(cfg.L2HitCycles),
		memTicks:        toTicks(cfg.MemCycles),
		mispredictTicks: toTicks(cfg.MispredictCycles),
		branchTicks:     toTicks(cfg.BranchCycles),
		allocTicks:      toTicks(cfg.AllocCycles),
		freeTicks:       toTicks(cfg.AllocCycles / 2),
		aluTicks:        toTicks(cfg.ALUCycles),
		tlbMissTicks:    toTicks(cfg.TLBMissCycles),

		lineMask: uint64(cfg.L1Line - 1),
		pageMask: uint64(pageBytes - 1),
	}
	m.heap.reset()
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Alloc implements mem.Model.
func (m *Machine) Alloc(size, align uint64) mem.Addr {
	m.allocs++
	m.bytes += size
	m.ticks += m.allocTicks
	return m.heap.alloc(size, align)
}

// Free implements mem.Model.
func (m *Machine) Free(addr mem.Addr, size uint64) {
	m.frees++
	m.ticks += m.freeTicks
	m.heap.free(addr, size)
}

// Read implements mem.Model.
func (m *Machine) Read(addr mem.Addr, size uint64) {
	m.reads++
	m.touch(addr, size)
}

// Write implements mem.Model.
func (m *Machine) Write(addr mem.Addr, size uint64) {
	m.writes++
	m.touch(addr, size)
}

// touch charges one memory access. The overwhelming majority of container
// accesses are small aligned reads that fit a single cache line (and hence a
// single page, since pages are line-aligned multiples of the line size), so
// that case runs straight-line with no loop: one TLB probe, one L1 probe,
// optionally one L2 probe. Accesses that straddle a line boundary fall back
// to the shared per-line walk.
func (m *Machine) touch(addr mem.Addr, size uint64) {
	m.ticks += m.baseOpTicks
	if size == 0 {
		size = 1
	}
	a := uint64(addr)
	if (a^(a+size-1))&^m.lineMask == 0 {
		// Single line, single page: the fast path.
		if !m.tlb.Touch(addr) {
			m.ticks += m.tlbMissTicks
		}
		if m.l1.Touch(addr) {
			m.ticks += m.l1HitTicks
		} else if m.l2.Touch(addr) {
			m.ticks += m.l2HitTicks
		} else {
			m.ticks += m.memTicks
		}
		return
	}
	m.touchSlow(addr, size)
}

// touchSlow walks every line of a straddling access via the same visitLines
// helper Cache.TouchRange uses. The first page is translated with the
// original (unaligned) address; subsequent TLB probes happen only when the
// walk crosses onto a new page.
func (m *Machine) touchSlow(addr mem.Addr, size uint64) {
	if !m.tlb.Touch(addr) {
		m.ticks += m.tlbMissTicks
	}
	first := true
	visitLines(addr, size, m.l1.lineShift, func(a mem.Addr) {
		if !first && uint64(a)&m.pageMask == 0 {
			if !m.tlb.Touch(a) {
				m.ticks += m.tlbMissTicks
			}
		}
		first = false
		if m.l1.Touch(a) {
			m.ticks += m.l1HitTicks
		} else if m.l2.Touch(a) {
			m.ticks += m.l2HitTicks
		} else {
			m.ticks += m.memTicks
		}
	})
}

// Work implements mem.Model: pure ALU work costs cycles but no events.
// Integral unit counts — every caller in the repository — stay on the
// integer accumulator; fractional units round to the nearest tick.
func (m *Machine) Work(units float64) {
	if u := uint64(units); float64(u) == units {
		m.ticks += u * m.aluTicks
		return
	}
	m.ticks += toTicks(units * m.cfg.ALUCycles)
}

// Branch implements mem.Model.
func (m *Machine) Branch(site mem.BranchSite, taken bool) {
	if m.bp.Predict(site, taken) {
		m.ticks += m.branchTicks
	} else {
		m.ticks += m.mispredictTicks
	}
}

// Cycles returns the accumulated simulated cycle count, converting from the
// fixed-point tick accumulator once, at read time.
func (m *Machine) Cycles() float64 { return float64(m.ticks) / ticksPerCycle }

// Counters returns a snapshot of all performance counters.
func (m *Machine) Counters() Counters {
	return Counters{
		Cycles:       m.Cycles(),
		Reads:        m.reads,
		Writes:       m.writes,
		L1Accesses:   m.l1.Accesses,
		L1Misses:     m.l1.Misses,
		L2Accesses:   m.l2.Accesses,
		L2Misses:     m.l2.Misses,
		Branches:     m.bp.Branches,
		Mispredicts:  m.bp.Mispredicts,
		TLBAccesses:  m.tlb.Accesses,
		TLBMisses:    m.tlb.Misses,
		Allocs:       m.allocs,
		Frees:        m.frees,
		BytesAlloced: m.bytes,
	}
}

// Reset clears all machine state: caches, predictor, heap, and counters.
// Afterwards the machine behaves exactly as one fresh from New. The caches
// and the TLB reset in O(1), so one machine can be reused across many short
// runs at the cost of refilling the predictor's table.
func (m *Machine) Reset() {
	m.l1.Reset()
	m.l2.Reset()
	m.tlb.Reset()
	m.bp.Reset()
	m.heap.reset()
	m.ticks = 0
	m.reads = 0
	m.writes = 0
	m.allocs = 0
	m.frees = 0
	m.bytes = 0
}

// String describes the machine in the style of Figure 7.
func (m *Machine) String() string {
	c := m.cfg
	return fmt.Sprintf("%s: L1 %dKB/%d-way, L2 %dKB/%d-way, line %dB, TLB %d entries, mem %.0f cyc, mispredict %.0f cyc",
		c.Name, c.L1Size>>10, c.L1Ways, c.L2Size>>10, c.L2Ways, c.L1Line, c.TLBEntries, c.MemCycles, c.MispredictCycles)
}

// allocator is a size-class free-list bump allocator over the simulated
// address space. Reusing freed blocks matters: it gives linked structures
// the realistic property that nodes allocated after churn are scattered.
type allocator struct {
	next  uint64
	freed [64][]mem.Addr // sizeClass -> free blocks, most recent last
}

// reset empties the heap, keeping the free lists' capacity.
func (a *allocator) reset() {
	a.next = 1 << 20
	for i := range a.freed {
		a.freed[i] = a.freed[i][:0]
	}
}

// sizeClass returns the log2 of the block size serving size: the next power
// of two, minimum 16 bytes.
func sizeClass(size uint64) int {
	if size <= 16 {
		return 4
	}
	return bits.Len64(size - 1)
}

func (a *allocator) alloc(size, align uint64) mem.Addr {
	if align == 0 {
		align = 8
	}
	class := sizeClass(size)
	if list := a.freed[class]; len(list) > 0 {
		a.freed[class] = list[:len(list)-1]
		return list[len(list)-1]
	}
	base := (a.next + align - 1) &^ (align - 1)
	a.next = base + 1<<class
	return mem.Addr(base)
}

func (a *allocator) free(addr mem.Addr, size uint64) {
	class := sizeClass(size)
	a.freed[class] = append(a.freed[class], addr)
}
