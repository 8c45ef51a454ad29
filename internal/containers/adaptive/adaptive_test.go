package adaptive

import (
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/workloads/phases"
)

// switchAfter is a deterministic suggester that keeps blessing the current
// kind for the first n evaluations and then advises `then` forever — the
// minimal phase-change stand-in for driving migrations on demand in tests.
type switchAfter struct {
	n    int
	then adt.Kind
	seen int
}

func (s *switchAfter) suggest(p *profile.Profile, arch string) (core.Suggestion, error) {
	s.seen++
	to := p.Kind
	if s.seen > s.n {
		to = s.then
	}
	return core.Suggestion{Original: p.Kind, Suggested: to, Confidence: 1, Replace: to != p.Kind}, nil
}

func newAdaptive(to adt.Kind, from adt.Kind, orderAware bool) *Container {
	m := machine.New(machine.Core2())
	sw := &switchAfter{n: 3, then: to}
	return New(m, Config{
		Kind:       from,
		ElemSize:   8,
		Context:    "test/adaptive",
		OrderAware: orderAware,
		Window:     16,
		Detector:   drift.Config{Window: 1, Hysteresis: 1},
		Suggest:    sw.suggest,
		BatchSize:  4,
	})
}

// TestAdaptivePhasedemoMigratesOnce drives the canonical two-phase workload
// and checks the full loop end to end: the rules advisor flags the phase
// change, the container migrates vector -> hash_set exactly once, keeps its
// contents, and the advisor covered every window.
func TestAdaptivePhasedemoMigratesOnce(t *testing.T) {
	m := machine.New(machine.Core2())
	a := New(m, Config{
		Kind:     phases.Original,
		ElemSize: 8,
		Context:  phases.Context,
		Window:   64,
		Detector: drift.Config{Window: 2, Hysteresis: 2},
	})
	cfg := phases.Config{}
	phases.Drive(a, cfg)
	a.FlushWindow()

	migs := a.Migrations()
	if len(migs) != 1 {
		t.Fatalf("migrations = %+v, want exactly one", migs)
	}
	mig := migs[0]
	if mig.From != adt.KindVector || mig.To != adt.KindHashSet {
		t.Fatalf("migrated %v -> %v, want vector -> hash_set", mig.From, mig.To)
	}
	if mig.EndOp == 0 || mig.EndOp <= mig.StartOp {
		t.Fatalf("migration did not finalize: %+v", mig)
	}
	if a.Kind() != adt.KindHashSet || a.Migrating() {
		t.Fatalf("final state: kind %v migrating %v", a.Kind(), a.Migrating())
	}
	if a.DriftSkipped() != 0 {
		t.Fatalf("advisor skipped %d windows", a.DriftSkipped())
	}
	// The working set survived the move: every key the build phase inserted
	// is still found, and the length matches the distinct-key count.
	want := map[uint64]bool{}
	for i := 0; i < 256; i++ {
		k := uint64(i%256) * 2654435761 % (256 * 16)
		want[k] = true
		if !a.Find(k) {
			t.Fatalf("key %d lost in migration", k)
		}
	}
	if a.Len() != len(want) {
		t.Fatalf("len = %d, want %d", a.Len(), len(want))
	}
}

// TestAdaptiveWindowsStayBoundedAcrossSwap is the re-anchoring regression
// test: if the window baselines were not re-anchored after the swap, the
// first post-migration window would subtract the retired backend's large
// cumulative counters from the fresh backend's near-zero ones and
// underflow into astronomically large deltas.
func TestAdaptiveWindowsStayBoundedAcrossSwap(t *testing.T) {
	m := machine.New(machine.Core2())
	ring := profile.NewWindowRing(1024)
	a := New(m, Config{
		Kind:     phases.Original,
		ElemSize: 8,
		Context:  phases.Context,
		Window:   64,
		Detector: drift.Config{Window: 2, Hysteresis: 2},
		Sink:     ring,
	})
	phases.Drive(a, phases.Config{})
	a.FlushWindow()

	if len(a.Migrations()) != 1 {
		t.Fatalf("migrations = %+v", a.Migrations())
	}
	recs := ring.Records()
	if len(recs) == 0 {
		t.Fatal("no windows emitted")
	}
	kinds := map[adt.Kind]bool{}
	for _, w := range recs {
		kinds[w.Kind] = true
		// Migration moves add backend-internal operations on top of the 64
		// interface invocations (drain + insert per moved element), so allow
		// generous headroom — underflow would be ~2^64, not a small factor.
		if tc := w.Stats.TotalCalls(); tc > 1<<16 {
			t.Fatalf("window %d total calls %d: baseline underflow after swap", w.Seq, tc)
		}
		if w.Cycles < 0 {
			t.Fatalf("window %d negative cycles %f", w.Seq, w.Cycles)
		}
	}
	if !kinds[adt.KindVector] || !kinds[adt.KindHashSet] {
		t.Fatalf("timeline kinds %v: want both vector and hash_set windows", kinds)
	}
	// Window sequence numbers stay continuous across the swap.
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("window seq gap: %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

// TestAdaptiveSeqToSeqAgreesWithStatic: during a vector -> list / deque
// migration every observation (return values, length, order checksums,
// partial front reads) must match a static sequence driven by the same
// stream — order is preserved through the two-backend split.
func TestAdaptiveSeqToSeqAgreesWithStatic(t *testing.T) {
	for _, to := range []adt.Kind{adt.KindList, adt.KindDeque} {
		a := newAdaptive(to, adt.KindVector, true) // seq->seq rows are order-safe
		ref := adt.New(adt.KindVector, nil, 8)
		rng := rand.New(rand.NewSource(int64(to) * 31))
		migrated := false
		for step := 0; step < 3000; step++ {
			op := rng.Intn(8)
			key := uint64(rng.Intn(200))
			pos := rng.Intn(ref.Len() + 1)
			var got, want bool
			switch op {
			case 0, 1:
				a.Insert(key)
				ref.Insert(key)
			case 2:
				a.PushFront(key)
				ref.PushFront(key)
			case 3:
				a.InsertAt(pos, key)
				ref.InsertAt(pos, key)
			case 4:
				got, want = a.Erase(key), ref.Erase(key)
			case 5:
				got, want = a.EraseFront(), ref.EraseFront()
			case 6:
				got, want = a.Find(key), ref.Find(key)
			default:
				n := rng.Intn(24)
				if g, w := a.Iterate(n), ref.Iterate(n); g != w {
					t.Fatalf("to=%v step %d: partial iterate %d vs %d", to, step, g, w)
				}
			}
			if got != want {
				t.Fatalf("to=%v step %d op %d: %v vs %v", to, step, op, got, want)
			}
			if a.Len() != ref.Len() {
				t.Fatalf("to=%v step %d: len %d vs %d", to, step, a.Len(), ref.Len())
			}
			if a.Migrating() {
				migrated = true
				if g, w := a.Iterate(-1), ref.Iterate(-1); g != w {
					t.Fatalf("to=%v step %d: mid-migration checksum %d vs %d", to, step, g, w)
				}
				ref.Iterate(-1) // keep the op streams aligned
			}
		}
		if !migrated || a.Kind() != to {
			t.Fatalf("to=%v: migration did not run mid-stream (kind %v)", to, a.Kind())
		}
		if g, w := a.Iterate(-1), ref.Iterate(-1); g != w {
			t.Fatalf("to=%v: final checksum %d vs %d", to, g, w)
		}
	}
}

// TestAdaptiveSortedToSortedAgreesWithStatic: a set -> avl_set / btree_set /
// sorted_vec migration is order-preserving (both iterate in sorted order),
// so even EraseFront — remove the global minimum — must match a static set
// mid-migration.
func TestAdaptiveSortedToSortedAgreesWithStatic(t *testing.T) {
	for _, to := range []adt.Kind{adt.KindAVLSet, adt.KindBTreeSet, adt.KindSortedVec} {
		a := newAdaptive(to, adt.KindSet, true)
		ref := adt.New(adt.KindSet, nil, 8)
		rng := rand.New(rand.NewSource(int64(to) * 17))
		migrated := false
		for step := 0; step < 3000; step++ {
			op := rng.Intn(6)
			key := uint64(rng.Intn(300))
			var got, want bool
			switch op {
			case 0, 1:
				a.Insert(key)
				ref.Insert(key)
			case 2:
				got, want = a.Erase(key), ref.Erase(key)
			case 3:
				got, want = a.EraseFront(), ref.EraseFront()
			case 4:
				got, want = a.Find(key), ref.Find(key)
			default:
				if g, w := a.Iterate(-1), ref.Iterate(-1); g != w {
					t.Fatalf("to=%v step %d: checksum %d vs %d", to, step, g, w)
				}
			}
			if got != want {
				t.Fatalf("to=%v step %d op %d: %v vs %v", to, step, op, got, want)
			}
			if a.Len() != ref.Len() {
				t.Fatalf("to=%v step %d: len %d vs %d", to, step, a.Len(), ref.Len())
			}
			migrated = migrated || a.Migrating()
		}
		if !migrated || a.Kind() != to {
			t.Fatalf("to=%v: migration did not run mid-stream (kind %v)", to, a.Kind())
		}
		if g, w := a.Iterate(-1), ref.Iterate(-1); g != w {
			t.Fatalf("to=%v: final checksum %d vs %d", to, g, w)
		}
	}
}

// TestAdaptiveFlatSortedAgreesWithStatic: migrations into and back out of
// the flat B+-tree are order-preserving (set and flat_btree_set both
// iterate in sorted order), so every observation — including EraseFront's
// remove-the-minimum — must match a static set mid-migration.
func TestAdaptiveFlatSortedAgreesWithStatic(t *testing.T) {
	for _, dir := range []struct {
		name     string
		from, to adt.Kind
	}{
		{"into flat", adt.KindSet, adt.KindFlatBTreeSet},
		{"btree into flat", adt.KindBTreeSet, adt.KindFlatBTreeSet},
		{"out of flat", adt.KindFlatBTreeSet, adt.KindSet},
	} {
		t.Run(dir.name, func(t *testing.T) {
			a := newAdaptive(dir.to, dir.from, true)
			ref := adt.New(adt.KindSet, nil, 8)
			rng := rand.New(rand.NewSource(int64(dir.to) * 23))
			migrated := false
			for step := 0; step < 3000; step++ {
				op := rng.Intn(6)
				key := uint64(rng.Intn(300))
				var got, want bool
				switch op {
				case 0, 1:
					a.Insert(key)
					ref.Insert(key)
				case 2:
					got, want = a.Erase(key), ref.Erase(key)
				case 3:
					got, want = a.EraseFront(), ref.EraseFront()
				case 4:
					got, want = a.Find(key), ref.Find(key)
				default:
					if g, w := a.Iterate(-1), ref.Iterate(-1); g != w {
						t.Fatalf("step %d: checksum %d vs %d", step, g, w)
					}
				}
				if got != want {
					t.Fatalf("step %d op %d: %v vs %v", step, op, got, want)
				}
				if a.Len() != ref.Len() {
					t.Fatalf("step %d: len %d vs %d", step, a.Len(), ref.Len())
				}
				migrated = migrated || a.Migrating()
			}
			if !migrated || a.Kind() != dir.to {
				t.Fatalf("migration did not run mid-stream (kind %v)", a.Kind())
			}
			if g, w := a.Iterate(-1), ref.Iterate(-1); g != w {
				t.Fatalf("final checksum %d vs %d", g, w)
			}
		})
	}
}

// TestAdaptiveFlatHashAgreesWithStatic: chained hash -> flat hash and back.
// EraseFront victims are implementation-defined for hash kinds, so the
// stream stays keyed; membership, length, and the order-independent
// checksum must match a static chained table throughout.
func TestAdaptiveFlatHashAgreesWithStatic(t *testing.T) {
	for _, dir := range []struct {
		name     string
		from, to adt.Kind
	}{
		{"into flat", adt.KindHashSet, adt.KindFlatHashSet},
		{"out of flat", adt.KindFlatHashSet, adt.KindHashSet},
	} {
		t.Run(dir.name, func(t *testing.T) {
			a := newAdaptive(dir.to, dir.from, false)
			ref := adt.New(adt.KindHashSet, nil, 8)
			rng := rand.New(rand.NewSource(int64(dir.to) * 41))
			migrated := false
			for step := 0; step < 3000; step++ {
				op := rng.Intn(6)
				key := uint64(rng.Intn(300))
				var got, want bool
				switch op {
				case 0, 1:
					a.Insert(key)
					ref.Insert(key)
				case 2:
					got, want = a.Erase(key), ref.Erase(key)
				case 3, 4:
					got, want = a.Find(key), ref.Find(key)
				default:
					if g, w := a.Iterate(-1), ref.Iterate(-1); g != w {
						t.Fatalf("step %d: checksum %d vs %d", step, g, w)
					}
				}
				if got != want {
					t.Fatalf("step %d op %d: %v vs %v", step, op, got, want)
				}
				if a.Len() != ref.Len() {
					t.Fatalf("step %d: len %d vs %d", step, a.Len(), ref.Len())
				}
				migrated = migrated || a.Migrating()
			}
			if !migrated || a.Kind() != dir.to {
				t.Fatalf("migration did not run mid-stream (kind %v)", a.Kind())
			}
			if g, w := a.Iterate(-1), ref.Iterate(-1); g != w {
				t.Fatalf("final checksum %d vs %d", g, w)
			}
		})
	}
}

// TestAdaptiveRulesUpgradeToFlatAndBack closes the loop the tentpole is
// about, with no scripted suggester: the default rules advisor watches a
// chained hash set thrash the caches on a large find-heavy working set and
// hot-migrates it to the flat robin-hood table; when the workload turns
// into scanning, the same advisor migrates the flat table out to a vector.
func TestAdaptiveRulesUpgradeToFlatAndBack(t *testing.T) {
	m := machine.New(machine.Core2())
	a := New(m, Config{
		Kind:     adt.KindHashSet,
		ElemSize: 8,
		Context:  "test/missheavy",
		Window:   64,
		Detector: drift.Config{Window: 2, Hysteresis: 2},
	})
	const n = 5000 // MaxLen must clear the 1<<12 miss-heavy floor
	for i := uint64(0); i < n; i++ {
		a.Insert(i * 2654435761)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1600; i++ {
		a.Find(uint64(rng.Intn(n)) * 2654435761)
	}
	migs := a.Migrations()
	if len(migs) != 1 || migs[0].From != adt.KindHashSet || migs[0].To != adt.KindFlatHashSet {
		t.Fatalf("after find-heavy phase: migrations = %+v, want hash_set -> flat_hash_set", migs)
	}
	if migs[0].EndOp == 0 {
		t.Fatalf("flat migration still in flight: %+v", migs[0])
	}
	// Phase change: the workload becomes iteration over the whole set.
	for i := 0; i < 1600; i++ {
		a.Iterate(64)
	}
	a.FlushWindow()
	migs = a.Migrations()
	if len(migs) != 2 || migs[1].From != adt.KindFlatHashSet || migs[1].To != adt.KindVector {
		t.Fatalf("after scan-heavy phase: migrations = %+v, want flat_hash_set -> vector", migs)
	}
	if a.Len() != n {
		t.Fatalf("len = %d, want %d", a.Len(), n)
	}
}

// TestAdaptiveCrossFamilyAgreesWithStatic: vector -> hash_set is the
// order-oblivious jump. With duplicate-free keys (the paper's precondition
// for the replacement) membership, length, and the order-independent full
// checksum must match the static original mid-migration.
func TestAdaptiveCrossFamilyAgreesWithStatic(t *testing.T) {
	a := newAdaptive(adt.KindHashSet, adt.KindVector, false)
	ref := adt.New(adt.KindVector, nil, 8)
	rng := rand.New(rand.NewSource(5))
	next := uint64(1)
	live := []uint64{}
	migrated := false
	for step := 0; step < 3000; step++ {
		op := rng.Intn(6)
		var got, want bool
		switch op {
		case 0, 1:
			a.Insert(next)
			ref.Insert(next)
			live = append(live, next)
			next++
		case 2:
			key := next + uint64(rng.Intn(50)) // probably absent
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				key = live[i]
				live = append(live[:i], live[i+1:]...)
			}
			got, want = a.Erase(key), ref.Erase(key)
		case 3:
			key := next + uint64(rng.Intn(50))
			if len(live) > 0 && rng.Intn(2) == 0 {
				key = live[rng.Intn(len(live))]
			}
			got, want = a.Find(key), ref.Find(key)
		default:
			if g, w := a.Iterate(-1), ref.Iterate(-1); g != w {
				t.Fatalf("step %d: checksum %d vs %d", step, g, w)
			}
		}
		if got != want {
			t.Fatalf("step %d op %d: %v vs %v", step, op, got, want)
		}
		if a.Len() != ref.Len() {
			t.Fatalf("step %d: len %d vs %d", step, a.Len(), ref.Len())
		}
		migrated = migrated || a.Migrating()
	}
	if !migrated || a.Kind() != adt.KindHashSet {
		t.Fatalf("migration did not run mid-stream (kind %v)", a.Kind())
	}
}

// TestAdaptiveRespectsOrderAwareness: an order-aware container must refuse
// the order-oblivious vector -> hash_set row even when the advice insists.
func TestAdaptiveRespectsOrderAwareness(t *testing.T) {
	a := newAdaptive(adt.KindHashSet, adt.KindVector, true)
	for i := uint64(0); i < 600; i++ {
		a.Insert(i)
	}
	if len(a.Migrations()) != 0 || a.Kind() != adt.KindVector {
		t.Fatalf("order-aware container migrated: %+v", a.Migrations())
	}
	if _, _, illegal := a.IgnoredEvents(); illegal == 0 {
		t.Fatal("illegal replacement was never counted")
	}
}

// TestAdaptiveCooldownAbsorbsFlapping: advice that keeps flipping between
// vector and list (legal rows both ways) must not thrash the backend — the
// cooldown holds migrations apart.
func TestAdaptiveCooldownAbsorbsFlapping(t *testing.T) {
	m := machine.New(machine.Core2())
	flip := 0
	flapping := func(p *profile.Profile, arch string) (core.Suggestion, error) {
		flip++
		to := adt.KindList
		if flip%2 == 0 {
			to = adt.KindVector
		}
		return core.Suggestion{Original: p.Kind, Suggested: to, Confidence: 1, Replace: to != p.Kind}, nil
	}
	a := New(m, Config{
		Kind:        adt.KindVector,
		ElemSize:    8,
		Context:     "test/flap",
		Window:      16,
		Detector:    drift.Config{Window: 1, Hysteresis: 1},
		Suggest:     flapping,
		BatchSize:   4,
		CooldownOps: 4096,
	})
	for i := uint64(0); i < 4000; i++ {
		a.Insert(i)
	}
	if n := len(a.Migrations()); n > 2 {
		t.Fatalf("flapping advice caused %d migrations", n)
	}
	if _, cooldown, _ := a.IgnoredEvents(); cooldown == 0 {
		t.Fatal("cooldown never suppressed an event")
	}
}

// TestAdaptiveDetectorSettlesAfterSwap: the detector's view of the
// instance must show the migrated kind as both actual and advised — the
// mid-stream Kind change is the migration it asked for, not fresh drift.
func TestAdaptiveDetectorSettlesAfterSwap(t *testing.T) {
	m := machine.New(machine.Core2())
	a := New(m, Config{
		Kind:     phases.Original,
		ElemSize: 8,
		Context:  phases.Context,
		Window:   64,
		Detector: drift.Config{Window: 2, Hysteresis: 2},
	})
	phases.Drive(a, phases.Config{})
	a.FlushWindow()
	sts := a.Detector().Statuses()
	if len(sts) != 1 || sts[0].InstanceKey != phases.Context+"#0" {
		t.Fatalf("instance missing from detector: %+v", sts)
	}
	st := sts[0]
	if st.Kind != adt.KindHashSet || st.Current != adt.KindHashSet {
		t.Fatalf("detector unsettled after swap: %+v", st)
	}
	if st.Events != 1 || st.Streak != 0 {
		t.Fatalf("detector state machine: %+v", st)
	}
}

// FuzzAdaptiveMigration feeds byte-driven operation streams with a forced
// mid-stream phase flip and cross-checks the adaptive container against a
// static backend on every observation. Keys are duplicate-free so the
// cross-family comparison is exact.
func FuzzAdaptiveMigration(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0, 1, 2, 3}, int64(1))
	f.Add([]byte{5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0, 5, 4}, int64(2))
	f.Add([]byte{0, 0, 0, 0, 3, 3, 3, 3, 5, 5, 0, 0, 2, 2, 4, 4}, int64(3))
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		targets := []adt.Kind{adt.KindHashSet, adt.KindSet, adt.KindAVLSet, adt.KindSortedVec}
		to := targets[uint64(seed)%uint64(len(targets))]
		a := newAdaptive(to, adt.KindVector, false)
		ref := adt.New(adt.KindVector, nil, 8)
		rng := rand.New(rand.NewSource(seed))
		next := uint64(1)
		var live []uint64
		for i, b := range ops {
			// Stretch each byte into several operations so short fuzz
			// inputs still cross window boundaries and migrate.
			for r := 0; r < 16; r++ {
				var got, want bool
				switch int(b+byte(r)) % 5 {
				case 0, 1:
					a.Insert(next)
					ref.Insert(next)
					live = append(live, next)
					next++
				case 2:
					key := next + uint64(rng.Intn(30))
					if len(live) > 0 && rng.Intn(2) == 0 {
						j := rng.Intn(len(live))
						key = live[j]
						live = append(live[:j], live[j+1:]...)
					}
					got, want = a.Erase(key), ref.Erase(key)
				case 3:
					key := next + uint64(rng.Intn(30))
					if len(live) > 0 && rng.Intn(2) == 0 {
						key = live[rng.Intn(len(live))]
					}
					got, want = a.Find(key), ref.Find(key)
				default:
					if g, w := a.Iterate(-1), ref.Iterate(-1); g != w {
						t.Fatalf("byte %d rep %d: checksum %d vs %d", i, r, g, w)
					}
				}
				if got != want {
					t.Fatalf("byte %d rep %d: %v vs %v", i, r, got, want)
				}
				if a.Len() != ref.Len() {
					t.Fatalf("byte %d rep %d: len %d vs %d", i, r, a.Len(), ref.Len())
				}
			}
		}
		if g, w := a.Iterate(-1), ref.Iterate(-1); g != w {
			t.Fatalf("final checksum %d vs %d", g, w)
		}
	})
}
