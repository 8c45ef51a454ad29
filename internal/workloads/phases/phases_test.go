package phases

import (
	"reflect"
	"testing"

	"repro/internal/adt"
	"repro/internal/containers/adaptive"
	"repro/internal/drift"
	"repro/internal/machine"
	"repro/internal/profile"
)

// runWindowed drives the workload on a windowed, profiled vector and
// returns the drift events plus the emitted windows — the exact pipeline
// examples/phasedemo wires up.
func runWindowed(t *testing.T, window int) ([]drift.Event, []profile.WindowRecord) {
	t.Helper()
	arch := machine.Core2()
	m := machine.New(arch)
	var evs []drift.Event
	det := drift.New(drift.Rules, drift.Config{Window: 2, Hysteresis: 2,
		OnEvent: func(e drift.Event) { evs = append(evs, e) }})
	ring := profile.NewWindowRing(1024)

	reg := profile.NewRegistry(m)
	reg.EnableWindows(window, profile.MultiWindowSink(ring, det.Sink(arch.Name)))
	c := reg.NewContainer(Original, 8, Context, false)
	Drive(c, Config{})
	reg.FlushWindows()
	return evs, ring.Records()
}

// TestDriveProvablyChangesPhase is the acceptance check: the demo workload
// run with windowing produces at least one drift event, deterministically —
// two runs yield byte-identical event lists, and the drift goes where the
// construction says it must (vector advice in the build phase, hash_set in
// the query phase).
func TestDriveProvablyChangesPhase(t *testing.T) {
	evs, windows := runWindowed(t, 64)
	if len(evs) == 0 {
		t.Fatal("phase workload produced no drift events")
	}
	first := evs[0]
	if first.From != adt.KindVector || first.To != adt.KindHashSet {
		t.Fatalf("drift %v -> %v, want vector -> hash_set", first.From, first.To)
	}
	if first.InstanceKey != Context+"#0" {
		t.Fatalf("drift on %q", first.InstanceKey)
	}

	// The phases are visible in the raw timeline too: the first window is
	// insert-dominant with zero finds, the last is all finds.
	if len(windows) < 3 {
		t.Fatalf("only %d windows emitted", len(windows))
	}
	head, tail := windows[0], windows[len(windows)-2] // -2: last full window
	if headFinds := head.Vector()[2]; headFinds != 0 {
		t.Fatalf("build-phase window has find fraction %g", headFinds)
	}
	if tailFinds := tail.Vector()[2]; tailFinds != 1 {
		t.Fatalf("query-phase window has find fraction %g, want 1", tailFinds)
	}

	// Determinism: the exact event sequence repeats.
	evs2, _ := runWindowed(t, 64)
	if !reflect.DeepEqual(evs, evs2) {
		t.Fatalf("drift events differ across identical runs:\n%v\nvs\n%v", evs, evs2)
	}
}

// TestDriveDeterministicStream: the operation stream itself is fixed — two
// drives produce identical cumulative statistics.
func TestDriveDeterministicStream(t *testing.T) {
	run := func() profile.Profile {
		m := machine.New(machine.Core2())
		c := profile.NewContainer(Original, m, 8, Context, false)
		Drive(c, Config{Keys: 128})
		return c.Snapshot()
	}
	a, b := run(), run()
	if a.Stats != b.Stats || a.HW != b.HW {
		t.Fatal("two identical drives diverged")
	}
	if got := a.Stats.TotalCalls(); got != uint64(Config{Keys: 128}.Ops()) {
		t.Fatalf("drive issued %d ops, Ops() promised %d", got, Config{Keys: 128}.Ops())
	}
}

// TestQueriesAlwaysHit: phase two only searches keys phase one inserted,
// so the find-cost signal reflects successful searches.
func TestQueriesAlwaysHit(t *testing.T) {
	m := machine.New(machine.Core2())
	c := adt.New(Original, m, 8)
	cfg := Config{Keys: 64}.withDefaults()
	for i := 0; i < cfg.Keys; i++ {
		c.Insert(key(i, cfg.Keys))
	}
	for i := 0; i < cfg.Finds; i++ {
		if !c.Find(key(i*7, cfg.Keys)) {
			t.Fatalf("query %d missed", i)
		}
	}
}

// TestDriveAdaptiveMigratesExactlyOnce is the closed-loop counterpart of
// TestDriveProvablyChangesPhase: run the same workload through the adaptive
// container and the drift event does not just print — the backend hot-swaps
// vector -> hash_set exactly once, deterministically.
func TestDriveAdaptiveMigratesExactlyOnce(t *testing.T) {
	run := func() []adaptive.Migration {
		m := machine.New(machine.Core2())
		a := adaptive.New(m, adaptive.Config{
			Kind:     Original,
			ElemSize: 8,
			Context:  Context,
			Window:   64,
			Detector: drift.Config{Window: 2, Hysteresis: 2},
		})
		Drive(a, Config{})
		a.FlushWindow()
		if a.Kind() != adt.KindHashSet {
			t.Fatalf("final kind %v, want hash_set", a.Kind())
		}
		if a.DriftSkipped() != 0 {
			t.Fatalf("advisor skipped %d windows", a.DriftSkipped())
		}
		return a.Migrations()
	}
	migs := run()
	if len(migs) != 1 {
		t.Fatalf("migrations = %+v, want exactly one", migs)
	}
	if migs[0].From != adt.KindVector || migs[0].To != adt.KindHashSet {
		t.Fatalf("migrated %v -> %v, want vector -> hash_set", migs[0].From, migs[0].To)
	}
	if migs[0].EndOp <= migs[0].StartOp || migs[0].Moved == 0 {
		t.Fatalf("migration never finalized: %+v", migs[0])
	}
	if again := run(); !reflect.DeepEqual(migs, again) {
		t.Fatalf("migration log differs across identical runs:\n%+v\nvs\n%+v", migs, again)
	}
}
