package machine

import (
	"testing"

	"repro/internal/mem"
)

// The benchmarks below are the simulator's events/sec suite: every container
// operation in the repository funnels its memory accesses and branches
// through this package, so simulated-event throughput bounds Phase-I
// labeling, Phase-II instrumentation, and every experiment. Each benchmark
// reports an explicit events/s metric so `go test -bench` output doubles as
// the perf-trajectory table committed in BENCH_machine.json.

// reportEvents attaches an events/s metric, where one event is one simulated
// Read/Write/Branch/Touch.
func reportEvents(b *testing.B, events int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
}

// BenchmarkTouchSingleLineHit is the overwhelming common case and the fast
// path's home turf: an aligned 8-byte read that hits L1 and stays on one
// page.
func BenchmarkTouchSingleLineHit(b *testing.B) {
	m := New(Core2())
	base := m.Alloc(4096, 64)
	m.Read(base, 8) // warm the line and the TLB entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(base, 8)
	}
	reportEvents(b, b.N)
}

// BenchmarkTouchSingleLineSweep walks an L1-resident working set at 8-byte
// stride: single-line accesses, rotating lines, one page in the TLB most of
// the time.
func BenchmarkTouchSingleLineSweep(b *testing.B) {
	m := New(Core2())
	base := m.Alloc(16<<10, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(base+mem.Addr((i*8)&(16<<10-1)), 8)
	}
	reportEvents(b, b.N)
}

// BenchmarkTouchStraddleLine exercises the slow path: every access spans a
// cache-line boundary, so two lines are touched per event.
func BenchmarkTouchStraddleLine(b *testing.B) {
	m := New(Core2())
	base := m.Alloc(16<<10, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(base+60+mem.Addr((i*64)&(16<<10-1)), 8)
	}
	reportEvents(b, b.N)
}

// BenchmarkTouchMissHeavy is the pointer-chase pattern: scattered accesses
// across a footprint that defeats L1, L2, and the TLB.
func BenchmarkTouchMissHeavy(b *testing.B) {
	m := New(Core2())
	base := m.Alloc(64<<20, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (uint64(i) * 2654435761) % (60 << 20)
		m.Read(base+mem.Addr(off), 8)
	}
	reportEvents(b, b.N)
}

// BenchmarkMachineRead measures the full read path (L1+L2+cycle account)
// over a 1 MB line-stride sweep, the original seed benchmark kept for
// trajectory continuity.
func BenchmarkMachineRead(b *testing.B) {
	m := New(Core2())
	base := m.Alloc(1<<20, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(base+mem.Addr((i*64)&(1<<20-1)), 8)
	}
	reportEvents(b, b.N)
}

// BenchmarkMachineMixed replays a container-shaped event mix: mostly small
// reads with writes, data-dependent branches, and hash work folded in.
func BenchmarkMachineMixed(b *testing.B) {
	m := New(Atom())
	base := m.Alloc(256<<10, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := base + mem.Addr((uint64(i)*2654435761)&(256<<10-1))
		m.Read(a, 8)
		if i&3 == 0 {
			m.Write(a, 8)
		}
		m.Branch(mem.BranchSite(i&0x1F), i&7 == 0)
		if i&15 == 0 {
			m.Work(40)
		}
	}
	reportEvents(b, 2*b.N) // ~2 simulated events per iteration on average
}

// BenchmarkCacheTouch measures raw cache throughput for rotating L1 hits.
func BenchmarkCacheTouch(b *testing.B) {
	c := NewCache(32<<10, 8, 64)
	for i := 0; i < b.N; i++ {
		c.Touch(mem.Addr(i&0x3FFF) << 6)
	}
	reportEvents(b, b.N)
}

// BenchmarkCacheTouchMRU hammers one line, the case the MRU-first probe
// short-circuits.
func BenchmarkCacheTouchMRU(b *testing.B) {
	c := NewCache(32<<10, 8, 64)
	c.Touch(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(0x1000)
	}
	reportEvents(b, b.N)
}

// BenchmarkTLBTouchSamePage hammers one page, the case the last-page memo
// short-circuits ahead of the page index.
func BenchmarkTLBTouchSamePage(b *testing.B) {
	t := NewTLB(256, 4096)
	t.Touch(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Touch(mem.Addr(0x1000 + i&0xFFF))
	}
	reportEvents(b, b.N)
}

// BenchmarkBranchPredict measures predictor throughput.
func BenchmarkBranchPredict(b *testing.B) {
	p := NewBranchPredictor(14, 12)
	for i := 0; i < b.N; i++ {
		p.Predict(mem.BranchSite(i&0xFF), i%3 == 0)
	}
	reportEvents(b, b.N)
}

// BenchmarkMachineReset measures returning a Core2 machine to the state New
// builds, the step between two candidates that share a machine.
func BenchmarkMachineReset(b *testing.B) {
	m := New(Core2())
	base := m.Alloc(1<<20, 64)
	m.Read(base, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
	}
}
