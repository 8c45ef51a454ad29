package training

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/adt"
	"repro/internal/ann"
	"repro/internal/appgen"
	"repro/internal/machine"
)

// quickOptions returns a training budget small enough for unit tests.
func quickOptions() Options {
	opt := DefaultOptions(machine.Core2())
	opt.AppCfg.TotalInterfCalls = 60
	opt.AppCfg.MaxPrepopulate = 100
	opt.AppCfg.MaxIterCount = 200
	opt.PerTargetApps = 6
	opt.MaxSeeds = 200
	opt.Workers = 4
	return opt
}

func quickANN() ann.Config {
	cfg := ann.DefaultConfig()
	cfg.Epochs = 30
	cfg.Hidden = 6
	return cfg
}

// referencePhase1 is the batch-era semantics of Algorithm 1, kept as the
// plain sequential scan: walk seeds in ascending order, record decisive
// winners, stop at PerTargetApps. The streaming implementation must
// reproduce it exactly.
func referencePhase1(target adt.ModelTarget, opt Options) []SeedLabel {
	var labels []SeedLabel
	for i := 0; i < opt.MaxSeeds && len(labels) < opt.PerTargetApps; i++ {
		seed := opt.SeedBase + int64(i)
		app := appgen.Generate(opt.AppCfg, target, seed)
		results := app.RunAll(opt.AppCfg, opt.Arch)
		best, decisive := appgen.Best(results, opt.Margin)
		if decisive {
			labels = append(labels, SeedLabel{Seed: seed, Best: results[best].Kind})
		}
	}
	return labels
}

// TestPhase1MatchesSequentialScan pins the determinism contract: the
// streaming, early-stopping Phase1 returns exactly the labels of a
// sequential exhaustive scan, for several targets and worker counts.
func TestPhase1MatchesSequentialScan(t *testing.T) {
	targets := []adt.ModelTarget{
		{Kind: adt.KindVector, OrderAware: false},
		{Kind: adt.KindSet, OrderAware: true},
		{Kind: adt.KindMap, OrderAware: false},
	}
	for _, tgt := range targets {
		for _, workers := range []int{1, 7} {
			opt := quickOptions()
			opt.Workers = workers
			want := referencePhase1(tgt, opt)
			got, err := Phase1(context.Background(), tgt, opt)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", tgt.Kind, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v workers=%d: %d labels, want %d", tgt.Kind, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v workers=%d: label %d = %+v, want %+v", tgt.Kind, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPhase1StopsDispatchingAtSaturation shows the streaming pipeline's
// early stop: once enough decisive labels exist, remaining seeds are never
// simulated, so far fewer than MaxSeeds apps run.
func TestPhase1StopsDispatchingAtSaturation(t *testing.T) {
	tgt := adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}
	opt := quickOptions()
	opt.PerTargetApps = 4
	opt.MaxSeeds = 4000
	p := newPool(opt.Workers)
	defer p.close()
	labels, _, scanned, _, err := phase1(context.Background(), tgt, opt, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != opt.PerTargetApps {
		t.Fatalf("expected saturation at %d labels, got %d", opt.PerTargetApps, len(labels))
	}
	if scanned >= opt.MaxSeeds {
		t.Fatalf("scanned all %d seeds despite early saturation", scanned)
	}
	// The drain window is bounded by in-flight work: workers plus the
	// result channel buffer, far below MaxSeeds.
	if slack := scanned - opt.PerTargetApps; slack > 200 {
		t.Fatalf("scanned %d seeds for %d labels; early stop is not engaging", scanned, len(labels))
	}
	t.Logf("scanned %d of %d seeds for %d labels", scanned, opt.MaxSeeds, len(labels))
}

func TestPhase1Cancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tgt := adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}
	if _, err := Phase1(ctx, tgt, quickOptions()); err == nil {
		t.Fatal("cancelled Phase1 returned no error")
	}
}

// TestPhase2CountsDropped feeds Phase2 a label whose winner is outside the
// target's candidate space (a corrupt label file in practice) and checks it
// is counted, not silently discarded.
func TestPhase2CountsDropped(t *testing.T) {
	tgt := adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}
	opt := quickOptions()
	labels := []SeedLabel{
		{Seed: opt.SeedBase, Best: tgt.Kind},        // legal: the original itself
		{Seed: opt.SeedBase + 1, Best: adt.KindMap}, // never a vector candidate
	}
	ds, err := Phase2(context.Background(), tgt, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dropped != 1 || len(ds.Examples) != 1 {
		t.Fatalf("dropped=%d examples=%d, want 1 and 1", ds.Dropped, len(ds.Examples))
	}
}

func TestPhase2AllDroppedErrors(t *testing.T) {
	tgt := adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}
	opt := quickOptions()
	labels := []SeedLabel{
		{Seed: opt.SeedBase, Best: adt.KindMap},
		{Seed: opt.SeedBase + 1, Best: adt.KindHashMap},
	}
	if _, err := Phase2(context.Background(), tgt, labels, opt); err == nil {
		t.Fatal("Phase2 produced a dataset from entirely dropped labels")
	}
}

func registryBytes(t *testing.T, set *ModelSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// trainTargets is the target list shared by the resume tests: two kinds,
// both order modes for the first.
func trainTargets() []adt.ModelTarget {
	return []adt.ModelTarget{
		{Kind: adt.KindVector, OrderAware: false},
		{Kind: adt.KindVector, OrderAware: true},
		{Kind: adt.KindSet, OrderAware: false},
	}
}

// TestResumeFromPartialCheckpoint is the deterministic half of the
// kill-and-resume contract: a checkpoint holding only some targets (as an
// interrupted run leaves behind) must resume into a registry byte-identical
// to an uninterrupted run.
func TestResumeFromPartialCheckpoint(t *testing.T) {
	opt := quickOptions()
	annCfg := quickANN()
	targets := trainTargets()

	full, err := TrainArchs(context.Background(), []Options{opt}, annCfg, targets, PipelineConfig{Workers: opt.Workers})
	if err != nil {
		t.Fatal(err)
	}
	want := registryBytes(t, full)

	// "Interrupt": checkpoint a run covering only the first target.
	cp, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainArchs(context.Background(), []Options{opt}, annCfg, targets[:1],
		PipelineConfig{Workers: opt.Workers, Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}

	// Resume over the full target list.
	resumed := 0
	set, err := TrainArchs(context.Background(), []Options{opt}, annCfg, targets, PipelineConfig{
		Workers:    opt.Workers,
		Checkpoint: cp,
		OnTarget: func(r TargetResult) {
			if r.Resumed {
				resumed++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("%d targets resumed from checkpoint, want 1", resumed)
	}
	if got := registryBytes(t, set); !bytes.Equal(got, want) {
		t.Fatal("resumed registry differs from uninterrupted run")
	}
}

// TestResumeMidStage checkpoints only Phase-I labels (a run killed between
// stages) and checks the resumed run skips Phase-I, finishes the remaining
// stages, and still lands on the uninterrupted registry bytes.
func TestResumeMidStage(t *testing.T) {
	opt := quickOptions()
	annCfg := quickANN()
	targets := trainTargets()[:1]
	tgt := targets[0]

	full, err := TrainArchs(context.Background(), []Options{opt}, annCfg, targets, PipelineConfig{Workers: opt.Workers})
	if err != nil {
		t.Fatal(err)
	}
	want := registryBytes(t, full)

	labels, err := Phase1(context.Background(), tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.EnsureMeta(opt, annCfg); err != nil {
		t.Fatal(err)
	}
	if err := cp.SaveLabels(opt.Arch.Name, tgt, labels); err != nil {
		t.Fatal(err)
	}

	var res TargetResult
	set, err := TrainArchs(context.Background(), []Options{opt}, annCfg, targets, PipelineConfig{
		Workers:    opt.Workers,
		Checkpoint: cp,
		OnTarget:   func(r TargetResult) { res = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.SeedsScanned != 0 {
		t.Fatalf("labels not restored from checkpoint: %+v", res)
	}
	if res.Examples == 0 {
		t.Fatal("resumed run produced no Phase-II examples")
	}
	if got := registryBytes(t, set); !bytes.Equal(got, want) {
		t.Fatal("mid-stage resume produced a different registry")
	}
}

// TestCancelMidRunThenResume cancels TrainArchs from inside the first
// OnTarget callback — the programmatic form of ^C mid-run — then resumes
// with the same checkpointer and requires the final registry to be
// byte-identical to an uninterrupted run.
func TestCancelMidRunThenResume(t *testing.T) {
	opt := quickOptions()
	opt.Workers = 2 // keep several targets genuinely in flight at cancel time
	annCfg := quickANN()
	targets := trainTargets()

	full, err := TrainArchs(context.Background(), []Options{opt}, annCfg, targets, PipelineConfig{Workers: opt.Workers})
	if err != nil {
		t.Fatal(err)
	}
	want := registryBytes(t, full)

	cp, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	set, err := TrainArchs(ctx, []Options{opt}, annCfg, targets, PipelineConfig{
		Workers:    opt.Workers,
		Checkpoint: cp,
		OnTarget:   func(TargetResult) { cancel() },
	})
	if err == nil {
		// Every target beat the cancellation — nothing left to resume, but
		// the registry must still match.
		if got := registryBytes(t, set); !bytes.Equal(got, want) {
			t.Fatal("completed run differs from reference run")
		}
		t.Skip("all targets completed before cancellation propagated")
	}

	resumed := 0
	set, err = TrainArchs(context.Background(), []Options{opt}, annCfg, targets, PipelineConfig{
		Workers:    opt.Workers,
		Checkpoint: cp,
		OnTarget: func(r TargetResult) {
			if r.Resumed {
				resumed++
			}
		},
	})
	if err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}
	if resumed == 0 {
		t.Fatal("nothing resumed from the interrupted run's checkpoint")
	}
	if got := registryBytes(t, set); !bytes.Equal(got, want) {
		t.Fatal("interrupted-then-resumed registry differs from uninterrupted run")
	}
}

func TestTrainArchsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := quickOptions()
	if _, err := TrainArchs(ctx, []Options{opt}, quickANN(), trainTargets(), PipelineConfig{Workers: 2}); err == nil {
		t.Fatal("cancelled TrainArchs returned no error")
	}
}

// TestTrainArchsRejectsMetaDrift: resuming with changed options must fail
// up front instead of silently mixing artifacts from two configurations.
func TestTrainArchsRejectsMetaDrift(t *testing.T) {
	opt := quickOptions()
	annCfg := quickANN()
	cp, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	targets := trainTargets()[:1]
	if _, err := TrainArchs(context.Background(), []Options{opt}, annCfg, targets,
		PipelineConfig{Workers: opt.Workers, Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	opt.Margin = 0.2
	if _, err := TrainArchs(context.Background(), []Options{opt}, annCfg, targets,
		PipelineConfig{Workers: opt.Workers, Checkpoint: cp}); err == nil {
		t.Fatal("option drift accepted against an existing checkpoint")
	}
}

// TestPhase2ReusesPhase1Profiles: the dataset the pipeline assembles from
// Phase I's original-kind runs, simulating nothing, deep-equals the one the
// exported Phase2 builds by replaying the same labels on reset machines.
func TestPhase2ReusesPhase1Profiles(t *testing.T) {
	ctx := context.Background()
	for _, arch := range []machine.Config{machine.Core2(), machine.Atom()} {
		opt := quickOptions()
		opt.Arch = arch
		p := newPool(opt.Workers)
		for _, tgt := range trainTargets() {
			labels, origs, _, _, err := phase1(ctx, tgt, opt, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(labels) == 0 || len(origs) != len(labels) {
				t.Fatalf("%s %v: %d labels, %d profiles", arch.Name, tgt.Kind, len(labels), len(origs))
			}
			got, simulated, err := phase2(ctx, tgt, labels, origs, opt, p)
			if err != nil {
				t.Fatal(err)
			}
			if !simulated.IsZero() {
				t.Fatalf("%s %v: phase2 simulated %d events with every profile at hand", arch.Name, tgt.Kind, simulated.Events())
			}
			want, err := Phase2(ctx, tgt, labels, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: dataset from Phase I's profiles differs from Phase2's replay", arch.Name, tgt.Kind)
			}
		}
		p.close()
	}
}

// TestTrainArchsDeterministicAcrossWorkersAndProcs is the determinism
// matrix's training row: the registry is byte-identical for every worker
// count and GOMAXPROCS. Phase I's seed jobs differ widely in cost, since a
// label abandons candidates once they cannot win, so its scheduling (and
// how far it scans past saturation) varies from run to run; none of that
// may reach the output. The test sets GOMAXPROCS, so it must not run in
// parallel with others.
func TestTrainArchsDeterministicAcrossWorkersAndProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	targets := []adt.ModelTarget{
		{Kind: adt.KindVector, OrderAware: true},
		{Kind: adt.KindList, OrderAware: false},
		{Kind: adt.KindSet, OrderAware: true},
		{Kind: adt.KindMap, OrderAware: false},
	}
	var want []byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4} {
			opt := quickOptions()
			opt.Workers = workers
			set, err := TrainArchs(context.Background(), []Options{opt}, quickANN(), targets, PipelineConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got := registryBytes(t, set)
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS %d, %d workers: registry differs from GOMAXPROCS 1, 1 worker", procs, workers)
			}
		}
	}
}
