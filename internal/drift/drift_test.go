package drift

import (
	"errors"
	"testing"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/opstats"
	"repro/internal/profile"
)

// win builds one window record for a vector instance with the given
// operation mix.
func win(ctx string, inst, seq int, counts map[opstats.Op]uint64) *profile.WindowRecord {
	w := &profile.WindowRecord{
		Profile:  profile.Profile{Context: ctx, Kind: adt.KindVector},
		Instance: inst,
		Seq:      seq,
	}
	var ops uint64
	for op, n := range counts {
		w.Stats.Count[op] = n
		ops += n
	}
	w.Stats.MaxLen = 64
	w.Stats.ElemSize = 8
	w.StartOp = uint64(seq) * ops
	w.EndOp = uint64(seq)*ops + ops
	return w
}

var (
	buildMix = map[opstats.Op]uint64{opstats.OpPushBack: 90, opstats.OpIterate: 10}
	queryMix = map[opstats.Op]uint64{opstats.OpFind: 95, opstats.OpPushBack: 5}
)

func TestRulesDeterministic(t *testing.T) {
	cases := []struct {
		name string
		p    profile.Profile
		want adt.Kind
	}{
		{"find-heavy vector -> hash", profile.Profile{Kind: adt.KindVector,
			Stats: opstats.Stats{Count: counts(opstats.OpFind, 80, opstats.OpPushBack, 20)}}, adt.KindHashSet},
		{"find-heavy ordered list -> tree", profile.Profile{Kind: adt.KindList, OrderAware: true,
			Stats: opstats.Stats{Count: counts(opstats.OpFind, 80, opstats.OpPushBack, 20)}}, adt.KindSet},
		{"find-heavy set keeps", profile.Profile{Kind: adt.KindSet,
			Stats: opstats.Stats{Count: counts(opstats.OpFind, 100)}}, adt.KindSet},
		{"front-heavy vector -> deque", profile.Profile{Kind: adt.KindVector,
			Stats: opstats.Stats{Count: counts(opstats.OpPushFront, 40, opstats.OpPushBack, 60)}}, adt.KindDeque},
		{"scan-heavy list -> vector", profile.Profile{Kind: adt.KindList,
			Stats: opstats.Stats{Count: counts(opstats.OpPushBack, 50, opstats.OpIterate, 40, opstats.OpFind, 10)}}, adt.KindVector},
		{"append-heavy vector keeps", profile.Profile{Kind: adt.KindVector,
			Stats: opstats.Stats{Count: counts(opstats.OpPushBack, 90, opstats.OpIterate, 10)}}, adt.KindVector},
		{"empty profile keeps", profile.Profile{Kind: adt.KindDeque}, adt.KindDeque},
	}
	for _, tc := range cases {
		for i := 0; i < 3; i++ { // same input, same verdict, every time
			s, err := Rules(&tc.p, "core2")
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if s.Suggested != tc.want {
				t.Fatalf("%s: suggested %v, want %v", tc.name, s.Suggested, tc.want)
			}
			if s.Replace != (tc.want != tc.p.Kind) {
				t.Fatalf("%s: Replace = %v", tc.name, s.Replace)
			}
		}
	}
}

func counts(kv ...interface{}) (c [opstats.NumOps]uint64) {
	for i := 0; i < len(kv); i += 2 {
		c[kv[i].(opstats.Op)] = uint64(kv[i+1].(int))
	}
	return c
}

// status finds one instance's state in d.Statuses().
func status(d *Detector, key string) (Status, bool) {
	for _, st := range d.Statuses() {
		if st.InstanceKey == key {
			return st, true
		}
	}
	return Status{}, false
}

// TestRulesMissHeavyPrefersFlat: a lookup-heavy profile whose working set
// thrashes the caches upgrades to the flat counterpart of its family — and
// only then. Small or cache-resident profiles keep the pointer-based advice.
func TestRulesMissHeavyPrefersFlat(t *testing.T) {
	missHeavy := machine.Counters{L1Accesses: 1000, L1Misses: 400}
	cacheFriendly := machine.Counters{L1Accesses: 1000, L1Misses: 20}
	findStats := func(maxLen uint64) opstats.Stats {
		return opstats.Stats{Count: counts(opstats.OpFind, 90, opstats.OpInsert, 10), MaxLen: maxLen}
	}
	cases := []struct {
		name string
		p    profile.Profile
		want adt.Kind
	}{
		{"hash_set upgrades", profile.Profile{Kind: adt.KindHashSet, HW: missHeavy,
			Stats: findStats(1 << 15)}, adt.KindFlatHashSet},
		{"ordered set upgrades", profile.Profile{Kind: adt.KindSet, OrderAware: true, HW: missHeavy,
			Stats: findStats(1 << 15)}, adt.KindFlatBTreeSet},
		{"btree_set upgrades", profile.Profile{Kind: adt.KindBTreeSet, OrderAware: true, HW: missHeavy,
			Stats: findStats(1 << 15)}, adt.KindFlatBTreeSet},
		{"vector upgrades straight to flat", profile.Profile{Kind: adt.KindVector, HW: missHeavy,
			Stats: findStats(1 << 15)}, adt.KindFlatHashSet},
		{"map upgrades", profile.Profile{Kind: adt.KindHashMap, HW: missHeavy,
			Stats: findStats(1 << 15)}, adt.KindFlatHashMap},
		{"ordered map upgrades", profile.Profile{Kind: adt.KindMap, OrderAware: true, HW: missHeavy,
			Stats: findStats(1 << 15)}, adt.KindFlatBTreeMap},
		{"small working set keeps", profile.Profile{Kind: adt.KindHashSet, HW: missHeavy,
			Stats: findStats(256)}, adt.KindHashSet},
		{"cache-friendly keeps", profile.Profile{Kind: adt.KindHashSet, HW: cacheFriendly,
			Stats: findStats(1 << 15)}, adt.KindHashSet},
		{"already flat keeps", profile.Profile{Kind: adt.KindFlatHashSet, HW: missHeavy,
			Stats: findStats(1 << 15)}, adt.KindFlatHashSet},
		{"scan-heavy flat exits to vector", profile.Profile{Kind: adt.KindFlatHashSet, HW: missHeavy,
			Stats: opstats.Stats{Count: counts(opstats.OpIterate, 70, opstats.OpInsert, 20, opstats.OpFind, 10), MaxLen: 1 << 15}}, adt.KindVector},
	}
	for _, tc := range cases {
		s, err := Rules(&tc.p, "core2")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if s.Suggested != tc.want {
			t.Fatalf("%s: suggested %v, want %v", tc.name, s.Suggested, tc.want)
		}
	}
}

// TestDetectorDriftsAfterHysteresis walks a timeline through a phase
// change: advice settles on vector during the build phase, then the query
// phase must push through Hysteresis consecutive divergent verdicts before
// the single drift event fires.
func TestDetectorDriftsAfterHysteresis(t *testing.T) {
	var fired []Event
	d := New(Rules, Config{
		Window:     2,
		Hysteresis: 2,
		OnEvent:    func(e Event) { fired = append(fired, e) },
	})

	seq := 0
	feed := func(mix map[opstats.Op]uint64) *Event {
		ev, err := d.Observe(win("demo/cache", 0, seq, mix), "core2")
		if err != nil {
			t.Fatal(err)
		}
		seq++
		return ev
	}

	for i := 0; i < 4; i++ {
		if ev := feed(buildMix); ev != nil {
			t.Fatalf("build phase raised event: %v", ev)
		}
	}
	// First query window: blend still half build mix, and even when the
	// verdict flips the streak is 1 < Hysteresis.
	if ev := feed(queryMix); ev != nil {
		t.Fatalf("drift confirmed after a single window: %v", ev)
	}
	// Keep feeding until the event fires; it must take at least one more
	// window and must fire exactly once.
	var got *Event
	for i := 0; i < 4 && got == nil; i++ {
		got = feed(queryMix)
	}
	if got == nil {
		t.Fatal("query phase never confirmed drift")
	}
	if got.From != adt.KindVector || got.To != adt.KindHashSet {
		t.Fatalf("drift %v -> %v, want vector -> hash_set", got.From, got.To)
	}
	for i := 0; i < 3; i++ {
		if ev := feed(queryMix); ev != nil {
			t.Fatalf("steady query phase re-raised drift: %v", ev)
		}
	}
	if len(fired) != 1 {
		t.Fatalf("event accounting: callback saw %d events, want 1", len(fired))
	}
	if fired[0] != *got {
		t.Fatalf("callback saw %v, Observe returned %v", fired[0], *got)
	}

	st, ok := status(d, "demo/cache#0")
	if !ok {
		t.Fatal("instance missing from Statuses")
	}
	if st.Initial != adt.KindVector || st.Current != adt.KindHashSet || !st.Drifted() {
		t.Fatalf("status after drift: %+v", st)
	}
	if st.Windows != seq {
		t.Fatalf("status windows = %d, fed %d", st.Windows, seq)
	}
}

// TestDetectorHysteresisAbsorbsFlap: a single noisy window (and a
// noisy-then-back pattern) must not raise an event when Hysteresis > 1.
func TestDetectorHysteresisAbsorbsFlap(t *testing.T) {
	var fired []Event
	d := New(Rules, Config{Window: 1, Hysteresis: 2, OnEvent: func(e Event) { fired = append(fired, e) }})
	seq := 0
	feed := func(mix map[opstats.Op]uint64) *Event {
		ev, err := d.Observe(win("demo/flap", 0, seq, mix), "core2")
		if err != nil {
			t.Fatal(err)
		}
		seq++
		return ev
	}
	feed(buildMix) // settles advice = vector
	for i := 0; i < 5; i++ {
		if ev := feed(queryMix); ev != nil && i == 0 {
			t.Fatalf("flap window raised event immediately: %v", ev)
		}
		if ev := feed(buildMix); ev != nil {
			t.Fatalf("alternating windows raised event: %v", ev)
		}
	}
	if n := len(fired); n != 0 {
		t.Fatalf("flapping timeline raised %d events", n)
	}
	// Sanity: without hysteresis the same pattern would flap.
	d1 := New(Rules, Config{Window: 1, Hysteresis: 1})
	d1.Observe(win("x", 0, 0, buildMix), "core2")
	ev, _ := d1.Observe(win("x", 0, 1, queryMix), "core2")
	if ev == nil {
		t.Fatal("hysteresis=1 should confirm on the first divergent window")
	}
}

// TestDetectorSkipsEmptyBlend: a blend in which no interface function ran
// describes no workload, so the suggester is not asked; the windows still
// extend the timeline, and the first window with calls is advised.
func TestDetectorSkipsEmptyBlend(t *testing.T) {
	asked := 0
	counting := func(p *profile.Profile, arch string) (core.Suggestion, error) {
		asked++
		return Rules(p, arch)
	}
	d := New(counting, Config{Window: 2, Hysteresis: 1})
	for i := 0; i < 3; i++ {
		if ev, err := d.Observe(win("t", 0, i, nil), "core2"); err != nil || ev != nil {
			t.Fatalf("empty blend: ev=%v err=%v", ev, err)
		}
	}
	if st, ok := status(d, "t#0"); !ok || st.Advised || st.Windows != 3 || asked != 0 {
		t.Fatalf("empty blends should be tracked but unadvised: %+v, suggester asked %d times", st, asked)
	}
	d.Observe(win("t", 0, 3, map[opstats.Op]uint64{opstats.OpFind: 5}), "core2")
	if st, _ := status(d, "t#0"); !st.Advised || asked != 1 {
		t.Fatalf("a window with calls should be advised: %+v, suggester asked %d times", st, asked)
	}
}

func TestDetectorTracksInstancesIndependently(t *testing.T) {
	d := New(Rules, Config{Window: 1, Hysteresis: 1})
	// Interleave two instances of the same context: only #1 changes phase.
	for i := 0; i < 3; i++ {
		d.Observe(win("ctx", 0, i, buildMix), "core2")
		d.Observe(win("ctx", 1, i, buildMix), "core2")
	}
	ev, err := d.Observe(win("ctx", 1, 3, queryMix), "core2")
	if err != nil || ev == nil {
		t.Fatalf("instance 1 should drift: ev=%v err=%v", ev, err)
	}
	if ev.InstanceKey != "ctx#1" {
		t.Fatalf("drift attributed to %q", ev.InstanceKey)
	}
	sts := d.Statuses()
	if len(sts) != 2 || sts[0].InstanceKey != "ctx#0" || sts[1].InstanceKey != "ctx#1" {
		t.Fatalf("statuses: %+v", sts)
	}
	if sts[0].Drifted() || !sts[1].Drifted() {
		t.Fatalf("drift flags: %v %v", sts[0].Drifted(), sts[1].Drifted())
	}
}

// winK is win with an explicit container kind, for timelines whose backend
// changes mid-stream.
func winK(ctx string, inst, seq int, kind adt.Kind, counts map[opstats.Op]uint64) *profile.WindowRecord {
	w := win(ctx, inst, seq, counts)
	w.Kind = kind
	return w
}

// TestDetectorTreatsRequestedMigrationAsSettled: after the detector advises
// vector -> hash_set and the host migrates, the timeline's Kind flips to
// hash_set mid-stream. That is the migration the detector asked for — it
// must settle, not fire again or count the old-kind blend against the new
// backend.
func TestDetectorTreatsRequestedMigrationAsSettled(t *testing.T) {
	d := New(Rules, Config{Window: 2, Hysteresis: 2})
	seq := 0
	feed := func(kind adt.Kind, mix map[opstats.Op]uint64) *Event {
		ev, err := d.Observe(winK("mig", 0, seq, kind, mix), "core2")
		if err != nil {
			t.Fatal(err)
		}
		seq++
		return ev
	}
	for i := 0; i < 4; i++ {
		feed(adt.KindVector, buildMix)
	}
	var got *Event
	for i := 0; i < 6 && got == nil; i++ {
		got = feed(adt.KindVector, queryMix)
	}
	if got == nil || got.To != adt.KindHashSet {
		t.Fatalf("setup drift did not fire: %v", got)
	}
	// Host migrates: subsequent windows arrive as hash_set.
	for i := 0; i < 6; i++ {
		if ev := feed(adt.KindHashSet, queryMix); ev != nil {
			t.Fatalf("completed migration re-raised drift: %v", ev)
		}
	}
	st, ok := status(d, "mig#0")
	if !ok || st.Kind != adt.KindHashSet || st.Current != adt.KindHashSet {
		t.Fatalf("post-migration status: %+v", st)
	}
	if st.Streak != 0 || st.Events != 1 {
		t.Fatalf("post-migration state machine unsettled: %+v", st)
	}
}

// TestDetectorRebaselinesUnsolicitedSwap: a backend change the detector did
// not advise re-baselines Current on reality instead of treating the new
// kind as a divergence from stale advice.
func TestDetectorRebaselinesUnsolicitedSwap(t *testing.T) {
	d := New(Rules, Config{Window: 1, Hysteresis: 4})
	d.Observe(win("swap", 0, 0, buildMix), "core2") // advised vector
	for i := 1; i < 4; i++ {
		if ev, err := d.Observe(winK("swap", 0, i, adt.KindSet, queryMix), "core2"); err != nil || ev != nil {
			t.Fatalf("unsolicited swap raised event: ev=%v err=%v", ev, err)
		}
	}
	st, ok := status(d, "swap#0")
	if !ok || st.Current != adt.KindSet || st.Kind != adt.KindSet {
		t.Fatalf("status after unsolicited swap: %+v", st)
	}
	if st.Events != 0 {
		t.Fatalf("unsolicited swap counted as drift: %+v", st)
	}
}

func TestDetectorSuggesterErrorKeepsTimeline(t *testing.T) {
	boom := errors.New("no model")
	fail := func(p *profile.Profile, arch string) (core.Suggestion, error) {
		return core.Suggestion{}, boom
	}
	d := New(fail, Config{Window: 1, Hysteresis: 1})
	_, err := d.Observe(win("e", 0, 0, buildMix), "core2")
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	st, ok := status(d, "e#0")
	if !ok || st.Windows != 1 || st.Advised {
		t.Fatalf("window should be recorded despite the error: %+v", st)
	}
}

// TestDetectorBaselineActualFiresOnInitialMismatch: with BaselineActual the
// baseline is the backend actually running, so advice that disagrees from
// the very first evaluation is confirmed through the normal hysteresis and
// fired — the adaptive container's contract. Without the flag the same
// stream stays silent (pure drift detection).
func TestDetectorBaselineActualFiresOnInitialMismatch(t *testing.T) {
	// A find-heavy vector: the rules advise hash_set from window one.
	feed := func(d *Detector) []Event {
		var evs []Event
		for seq := 0; seq < 6; seq++ {
			ev, err := d.Observe(win("ctx", 0, seq, queryMix), "core2")
			if err != nil {
				t.Fatal(err)
			}
			if ev != nil {
				evs = append(evs, *ev)
			}
		}
		return evs
	}

	plain := feed(New(Rules, Config{Window: 2, Hysteresis: 2}))
	if len(plain) != 0 {
		t.Fatalf("pure detection fired on an initial mismatch: %v", plain)
	}

	evs := feed(New(Rules, Config{Window: 2, Hysteresis: 2, BaselineActual: true}))
	if len(evs) != 1 {
		t.Fatalf("events = %v, want exactly one", evs)
	}
	if evs[0].From != adt.KindVector || evs[0].To != adt.KindHashSet {
		t.Fatalf("event %v -> %v, want vector -> hash_set", evs[0].From, evs[0].To)
	}
}
