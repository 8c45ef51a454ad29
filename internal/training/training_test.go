package training

import (
	"context"
	"testing"

	"repro/internal/adt"
	"repro/internal/ann"
	"repro/internal/appgen"
	"repro/internal/machine"
)

// tinyOptions keeps test runtimes in seconds while still exercising every
// stage of the framework.
func tinyOptions(arch machine.Config) Options {
	opt := DefaultOptions(arch)
	opt.AppCfg.TotalInterfCalls = 250
	opt.AppCfg.MaxPrepopulate = 400
	opt.AppCfg.MaxIterCount = 800
	opt.PerTargetApps = 80
	opt.MaxSeeds = 500
	return opt
}

func tinyANN() ann.Config {
	cfg := ann.DefaultConfig()
	cfg.Epochs = 120
	return cfg
}

func TestPhase1ProducesDecisiveLabels(t *testing.T) {
	opt := tinyOptions(machine.Core2())
	tgt := adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}
	labels, err := Phase1(context.Background(), tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) == 0 {
		t.Fatal("no labels")
	}
	if len(labels) > opt.PerTargetApps {
		t.Fatalf("labels %d exceed cap %d", len(labels), opt.PerTargetApps)
	}
	cands := map[adt.Kind]bool{}
	for _, k := range adt.CandidatesWithOriginal(tgt.Kind, tgt.OrderAware) {
		cands[k] = true
	}
	for _, l := range labels {
		if !cands[l.Best] {
			t.Fatalf("label %v not a legal candidate", l.Best)
		}
	}
	// Labels must be verifiable: re-running the app reproduces the winner.
	app := appgen.Generate(opt.AppCfg, tgt, labels[0].Seed)
	results := app.RunAll(opt.AppCfg, opt.Arch)
	best, _ := appgen.Best(results, opt.Margin)
	if results[best].Kind != labels[0].Best {
		t.Fatalf("replay winner %v != recorded %v", results[best].Kind, labels[0].Best)
	}
}

func TestPhase1Deterministic(t *testing.T) {
	opt := tinyOptions(machine.Core2())
	opt.PerTargetApps = 30
	tgt := adt.ModelTarget{Kind: adt.KindList, OrderAware: true}
	a, err := Phase1(context.Background(), tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Phase1(context.Background(), tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("label %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPhase2BuildsLabeledFeatures(t *testing.T) {
	opt := tinyOptions(machine.Core2())
	opt.PerTargetApps = 40
	tgt := adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}
	labels, err := Phase1(context.Background(), tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Phase2(context.Background(), tgt, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Examples) != len(labels) {
		t.Fatalf("examples %d != labels %d", len(ds.Examples), len(labels))
	}
	if ds.Candidates[0] != tgt.Kind {
		t.Fatal("original not first candidate")
	}
	for i, e := range ds.Examples {
		if e.Label < 0 || e.Label >= len(ds.Candidates) {
			t.Fatalf("example %d label %d out of range", i, e.Label)
		}
		if ds.Candidates[e.Label] != labels[i].Best {
			t.Fatalf("example %d label %v != seed label %v", i, ds.Candidates[e.Label], labels[i].Best)
		}
		// All Phase-II profiles come from the original container.
		if ds.Profiles[i].Kind != tgt.Kind {
			t.Fatalf("profile %d from %v, want original %v", i, ds.Profiles[i].Kind, tgt.Kind)
		}
	}
}

func TestTrainedModelBeatsChance(t *testing.T) {
	opt := tinyOptions(machine.Core2())
	opt.PerTargetApps = 150
	opt.MaxSeeds = 1200
	tgt := adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}
	labels, err := Phase1(context.Background(), tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Phase2(context.Background(), tgt, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainModel(ds, opt.Arch.Name, tinyANN())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Validate(context.Background(), m, opt, 60, 700001)
	if err != nil {
		t.Fatal(err)
	}
	chance := 1.0 / float64(len(ds.Candidates))
	if acc < chance+0.15 {
		t.Fatalf("validation accuracy %.2f barely above chance %.2f", acc, chance)
	}
}

func TestCandidateIndex(t *testing.T) {
	ds := Dataset{Candidates: []adt.Kind{adt.KindVector, adt.KindList}}
	if ds.CandidateIndex(adt.KindList) != 1 {
		t.Fatal("index wrong")
	}
	if ds.CandidateIndex(adt.KindHashMap) != -1 {
		t.Fatal("missing kind found")
	}
}

func TestModelSetRegistry(t *testing.T) {
	s := NewModelSet()
	m := &Model{Target: adt.ModelTarget{Kind: adt.KindSet}, Arch: "Core2"}
	s.Put(m)
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	if _, ok := s.Get(adt.KindSet, false, "Core2"); !ok {
		t.Fatal("registered model not found")
	}
	if _, ok := s.Get(adt.KindSet, false, "Atom"); ok {
		t.Fatal("wrong-arch lookup succeeded")
	}
	if _, ok := s.Get(adt.KindSet, true, "Core2"); ok {
		t.Fatal("wrong-awareness lookup succeeded")
	}
}

func TestOracleIsFastest(t *testing.T) {
	opt := tinyOptions(machine.Core2())
	tgt := adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}
	app := appgen.Generate(opt.AppCfg, tgt, 42)
	oracle := Oracle(&app, opt.AppCfg, opt.Arch)
	results := app.RunAll(opt.AppCfg, opt.Arch)
	for _, r := range results {
		if r.Kind == oracle {
			continue
		}
		var oracleCycles float64
		for _, o := range results {
			if o.Kind == oracle {
				oracleCycles = o.Cycles
			}
		}
		if r.Cycles < oracleCycles {
			t.Fatalf("oracle %v (%.0f) slower than %v (%.0f)", oracle, oracleCycles, r.Kind, r.Cycles)
		}
	}
}

func TestTrainModelEmptyDataset(t *testing.T) {
	if _, err := TrainModel(Dataset{Target: adt.ModelTarget{Kind: adt.KindSet}}, "X", tinyANN()); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestTrainAllCoversTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-target training in -short mode")
	}
	opt := tinyOptions(machine.Core2())
	opt.PerTargetApps = 40
	opt.MaxSeeds = 400
	targets := []adt.ModelTarget{
		{Kind: adt.KindVector, OrderAware: false},
		{Kind: adt.KindSet, OrderAware: false},
	}
	set, err := TrainArchs(context.Background(), []Options{opt}, tinyANN(), targets, PipelineConfig{Workers: opt.Workers})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("models = %d", set.Len())
	}
	for _, tgt := range targets {
		if _, ok := set.Get(tgt.Kind, tgt.OrderAware, "Core2"); !ok {
			t.Fatalf("missing model for %v", tgt)
		}
	}
}
