package machine

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// simEvent is one machine-independent step of a seeded event stream. Frees
// name a live block by position, so the same stream can drive machines whose
// allocators are compared rather than assumed equal.
type simEvent struct {
	op    int // evRead, evWrite, evBranch, evAlloc, evFree
	addr  mem.Addr
	size  uint64 // access size, or allocation size
	align uint64
	pick  int // evFree: index into the live blocks
	site  mem.BranchSite
	taken bool
}

const (
	evRead = iota
	evWrite
	evBranch
	evAlloc
	evFree
)

// eventStream draws n events: single-line, line-straddling and multi-page
// reads and writes over a hot 256 KiB window and a cold 32 MiB footprint
// (so L1, L2 and the TLB all evict), biased branches over 64 sites, and
// allocations and frees of mixed sizes. Every stream starts and ends with a
// read of the same address, so a stream run after a reset starts on the
// page and line the previous stream ended on, where a stale last-page or
// MRU memo would show.
func eventStream(seed int64, n int) []simEvent {
	rng := rand.New(rand.NewSource(seed))
	const region = mem.Addr(1 << 32)
	out := make([]simEvent, n)
	out[0] = simEvent{op: evRead, addr: region, size: 8}
	out[n-1] = out[0]
	for i := 1; i < n-1; i++ {
		e := &out[i]
		switch r := rng.Intn(100); {
		case r < 70:
			e.op = evRead
			if r >= 50 {
				e.op = evWrite
			}
			span := uint64(256 << 10)
			if rng.Intn(2) == 0 {
				span = 32 << 20
			}
			e.addr = region + mem.Addr(rng.Int63n(int64(span)))
			switch k := rng.Intn(20); {
			case k == 0: // several pages
				e.size = uint64(4096 + rng.Intn(3*4096))
			case k < 4: // straddles a line
				e.addr = e.addr&^63 + 60
				e.size = uint64(8 + rng.Intn(16))
			default: // inside one line
				e.addr &^= 7
				e.size = uint64(1 + rng.Intn(8))
			}
		case r < 90:
			e.op = evBranch
			e.site = mem.BranchSite(rng.Intn(64))
			e.taken = rng.Intn(4) != 0
		case r < 96:
			e.op = evAlloc
			e.size = uint64(1 + rng.Intn(2048))
			e.align = 1 << rng.Intn(7)
		default:
			e.op = evFree
			e.pick = rng.Int()
		}
	}
	return out
}

// streamState holds one machine's live blocks while it replays a stream.
type streamState struct {
	live []block
}

type block struct {
	addr mem.Addr
	size uint64
}

// apply runs one event on m and returns the address an allocation got.
func (s *streamState) apply(m *Machine, e simEvent) mem.Addr {
	switch e.op {
	case evRead:
		m.Read(e.addr, e.size)
	case evWrite:
		m.Write(e.addr, e.size)
	case evBranch:
		m.Branch(e.site, e.taken)
	case evAlloc:
		a := m.Alloc(e.size, e.align)
		s.live = append(s.live, block{a, e.size})
		return a
	case evFree:
		if len(s.live) > 0 {
			i := e.pick % len(s.live)
			b := s.live[i]
			s.live[i] = s.live[len(s.live)-1]
			s.live = s.live[:len(s.live)-1]
			m.Free(b.addr, b.size)
		}
	}
	return 0
}

func (s *streamState) run(m *Machine, events []simEvent) {
	for _, e := range events {
		s.apply(m, e)
	}
}

// lockstep replays events on want and got side by side and fails at the
// first event after which their counters or allocation results differ.
func lockstep(t *testing.T, want, got *Machine, events []simEvent) {
	t.Helper()
	var ws, gs streamState
	for i, e := range events {
		wa, ga := ws.apply(want, e), gs.apply(got, e)
		if wa != ga {
			t.Fatalf("event %d (op %d): alloc returned %#x, fresh machine %#x", i, e.op, ga, wa)
		}
		if w, g := want.Counters(), got.Counters(); w != g {
			t.Fatalf("event %d (op %d): counters diverged from a fresh machine\n got  %+v\n want %+v", i, e.op, g, w)
		}
	}
}

// TestResetMatchesNew runs one stream on a machine, resets it, and checks
// that a second stream then gives, after every event, the counters and
// allocation addresses it gives on a machine fresh from New.
func TestResetMatchesNew(t *testing.T) {
	for _, cfg := range []Config{Core2(), Atom()} {
		t.Run(cfg.Name, func(t *testing.T) {
			used := New(cfg)
			var s streamState
			s.run(used, eventStream(1, 200_000))
			used.Reset()
			lockstep(t, New(cfg), used, eventStream(2, 50_000))

			// A second reset, from a state the first comparison built.
			used.Reset()
			lockstep(t, New(cfg), used, eventStream(3, 20_000))
		})
	}
}

// TestResetManyTimes runs a stream, resets the machine n times, and checks
// that the stream then gives the counter trace of a fresh machine, for every
// n up to 300. That passes the range of an 8-bit validity epoch, so each
// epoch value comes round again while entries written under it are still
// in the arrays.
func TestResetManyTimes(t *testing.T) {
	for _, cfg := range []Config{Core2(), Atom()} {
		t.Run(cfg.Name, func(t *testing.T) {
			stream := eventStream(7, 500)
			fresh := New(cfg)
			want := make([]Counters, len(stream))
			var fs streamState
			for i, e := range stream {
				fs.apply(fresh, e)
				want[i] = fresh.Counters()
			}
			m := New(cfg)
			for n := 1; n <= 300; n++ {
				var s streamState
				s.run(m, stream)
				for i := 0; i < n; i++ {
					m.Reset()
				}
				var check streamState
				for i, e := range stream {
					check.apply(m, e)
					if got := m.Counters(); got != want[i] {
						t.Fatalf("after %d resets, event %d: counters diverged from a fresh machine\n got  %+v\n want %+v", n, i, got, want[i])
					}
				}
				m.Reset()
			}
		})
	}
}
