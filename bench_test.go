// Package repro's root benchmarks regenerate every table and figure of the
// paper at reduced scale, one benchmark per artifact, plus ablation benches
// for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Accuracy-style results are attached as custom benchmark metrics (e.g.
// acc%, disagree%), so `go test -bench` output doubles as a miniature
// results table.
package repro

import (
	"context"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/training"
	"repro/internal/workloads/chord"
	"repro/internal/workloads/raytrace"
	"repro/internal/workloads/relipmoc"
	"repro/internal/workloads/xalan"
)

// benchScale is small enough that every artifact regenerates in seconds.
func benchScale() experiments.Scale {
	sc := experiments.SmallScale()
	sc.TrainApps = 100
	sc.MaxSeeds = 1000
	sc.Calls = 200
	sc.ValidationApps = 50
	sc.Fig1PerBucket = 30
	sc.Fig6Apps = 80
	sc.ANNEpochs = 120
	sc.GAGenerations = 3
	sc.GAPopulation = 6
	sc.GAFitnessEpochs = 20
	return sc
}

// sharedModels trains one registry for all model-dependent benchmarks.
var (
	modelsOnce sync.Once
	modelsSet  *training.ModelSet
	modelsErr  error
)

func benchBrainy(b *testing.B) *core.Brainy {
	b.Helper()
	modelsOnce.Do(func() {
		modelsSet, modelsErr = experiments.TrainModels(benchScale())
	})
	if modelsErr != nil {
		b.Fatal(modelsErr)
	}
	return core.New(modelsSet)
}

// BenchmarkFigure1 regenerates the Core2-vs-Atom best-DS agreement study.
func BenchmarkFigure1(b *testing.B) {
	var last experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		last = experiments.Figure1(benchScale())
	}
	b.ReportMetric(last.OverallDisagreePct, "disagree%")
}

// BenchmarkFigure2 regenerates the container-usage survey.
func BenchmarkFigure2(b *testing.B) {
	var refs int
	for i := 0; i < b.N; i++ {
		counts := experiments.Figure2().Counts
		refs = counts[0].Refs
	}
	b.ReportMetric(float64(refs), "top-refs")
}

// BenchmarkTable3 regenerates the GA feature selection at micro scale.
func BenchmarkTable3(b *testing.B) {
	sc := benchScale()
	sc.TrainApps = 60
	sc.MaxSeeds = 600
	var score float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(sc)
		if err != nil {
			b.Fatal(err)
		}
		score = res.Rows[0].Score
	}
	b.ReportMetric(100*score, "holdout-acc%")
}

// BenchmarkFigure6 regenerates the resize/mispredict correlation.
func BenchmarkFigure6(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure6(benchScale())
		r = res.Series[0].Correlation
	}
	b.ReportMetric(r, "pearson-r")
}

// BenchmarkFigure8 regenerates the per-application improvement summary.
func BenchmarkFigure8(b *testing.B) {
	brainy := benchBrainy(b)
	b.ResetTimer()
	var avg float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(brainy)
		if err != nil {
			b.Fatal(err)
		}
		avg = res.Avg["Core2"]
	}
	b.ReportMetric(avg, "core2-improve%")
}

// BenchmarkFigure9 regenerates the model-accuracy validation for one model
// per architecture (the full figure is 14 model trainings).
func BenchmarkFigure9(b *testing.B) {
	sc := benchScale()
	var acc float64
	for i := 0; i < b.N; i++ {
		for _, arch := range experiments.Archs() {
			opt := training.DefaultOptions(arch)
			opt.PerTargetApps = sc.TrainApps
			opt.MaxSeeds = sc.MaxSeeds
			opt.AppCfg.TotalInterfCalls = sc.Calls
			tgt := adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}
			labels, err := training.Phase1(context.Background(), tgt, opt)
			if err != nil {
				b.Fatal(err)
			}
			ds, err := training.Phase2(context.Background(), tgt, labels, opt)
			if err != nil {
				b.Fatal(err)
			}
			annCfg := ann.DefaultConfig()
			annCfg.Epochs = sc.ANNEpochs
			m, err := training.TrainModel(ds, arch.Name, annCfg)
			if err != nil {
				b.Fatal(err)
			}
			acc, err = training.Validate(context.Background(), m, opt, sc.ValidationApps, 777000)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(100*acc, "atom-acc%")
}

// BenchmarkXalancbmk regenerates Figures 10-11 (without Brainy, whose
// models BenchmarkFigure8 already exercises).
func BenchmarkXalancbmk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CaseStudy("xalan", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChord regenerates Figures 12-13.
func BenchmarkChord(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CaseStudy("chord", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelipmoC regenerates the Section 6.4 study.
func BenchmarkRelipmoC(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		rs := relipmoc.RunAll(relipmoc.Inputs()[1], machine.Core2())
		imp = 100 * (rs[0].ContainerCycles - rs[1].ContainerCycles) / rs[0].ContainerCycles
	}
	b.ReportMetric(imp, "avl-improve%")
}

// BenchmarkRaytrace regenerates the Section 6.5 study.
func BenchmarkRaytrace(b *testing.B) {
	in, err := raytrace.InputByName("default")
	if err != nil {
		b.Fatal(err)
	}
	var imp float64
	for i := 0; i < b.N; i++ {
		rs := raytrace.RunAll(in, machine.Core2())
		imp = 100 * (rs[0].Cycles - rs[1].Cycles) / rs[0].Cycles
	}
	b.ReportMetric(imp, "vector-improve%")
}

// BenchmarkTable4 regenerates the touched-elements table.
func BenchmarkTable4(b *testing.B) {
	var touched uint64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4()
		touched = rows[len(rows)-1].Touched
	}
	b.ReportMetric(float64(touched), "ref-touched")
}

// --- Ablations ---

// BenchmarkAblationNoHardwareFeatures contrasts full features with
// software-only features — the paper's central design claim.
func BenchmarkAblationNoHardwareFeatures(b *testing.B) {
	var full, soft float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationHardwareFeatures(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		full, soft = res.Rows[0].Accuracy, res.Rows[1].Accuracy
	}
	b.ReportMetric(100*full, "full-acc%")
	b.ReportMetric(100*soft, "sw-only-acc%")
}

// BenchmarkAblationThreshold contrasts the 5% Phase-I margin with none.
func BenchmarkAblationThreshold(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationThreshold(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		with, without = res.Rows[0].Accuracy, res.Rows[1].Accuracy
	}
	b.ReportMetric(100*with, "margin5-acc%")
	b.ReportMetric(100*without, "margin0-acc%")
}

// BenchmarkAblationHiddenWidth sweeps the ANN hidden width.
func BenchmarkAblationHiddenWidth(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationHiddenWidth(benchScale(), []int{8, 24})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Accuracy > best {
				best = r.Accuracy
			}
		}
	}
	b.ReportMetric(100*best, "best-acc%")
}

// BenchmarkAblationTrainingSize sweeps the training-set size.
func BenchmarkAblationTrainingSize(b *testing.B) {
	var small, large float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationTrainingSize(benchScale(), []int{20, 100})
		if err != nil {
			b.Fatal(err)
		}
		small, large = res.Rows[0].Accuracy, res.Rows[1].Accuracy
	}
	b.ReportMetric(100*small, "n20-acc%")
	b.ReportMetric(100*large, "n100-acc%")
}

// BenchmarkAblationCrossArch measures the native-vs-transferred accuracy
// gap that justifies per-architecture models.
func BenchmarkAblationCrossArch(b *testing.B) {
	var native, transferred float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationCrossArch(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		native, transferred = res.Rows[0].Accuracy, res.Rows[1].Accuracy
	}
	b.ReportMetric(100*native, "native-acc%")
	b.ReportMetric(100*transferred, "transfer-acc%")
}

// BenchmarkAblationGAFeatureSelection contrasts all-features training with
// the GA-selected mask.
func BenchmarkAblationGAFeatureSelection(b *testing.B) {
	sc := benchScale()
	sc.TrainApps = 60
	sc.MaxSeeds = 600
	var gaScore float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(sc)
		if err != nil {
			b.Fatal(err)
		}
		gaScore = res.Rows[0].Score
	}
	b.ReportMetric(100*gaScore, "ga-acc%")
}

// --- Raw workload micro-benchmarks (simulation throughput) ---

// BenchmarkWorkloadXalanReference measures one full reference-input run.
func BenchmarkWorkloadXalanReference(b *testing.B) {
	in, err := xalan.InputByName("reference")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		xalan.Run(adt.KindHashSet, in, machine.Core2())
	}
}

// BenchmarkWorkloadChordMedium measures one full medium-input simulation.
func BenchmarkWorkloadChordMedium(b *testing.B) {
	in, err := chord.InputByName("medium")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		chord.Run(adt.KindHashMap, in, machine.Core2())
	}
}

// BenchmarkPhase1WallClock measures end-to-end Phase-I labeling throughput:
// generate apps, run every candidate on the worker's reused simulated
// machine (reset before each run), select decisive winners — the loop that
// dominates training wall-clock and that the simulator fast path
// (internal/machine) exists to accelerate. The seeds/s metric is the number
// of candidate-sweep app executions per second.
func BenchmarkPhase1WallClock(b *testing.B) {
	target := adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}
	opt := training.DefaultOptions(machine.Core2())
	opt.AppCfg.TotalInterfCalls = 200
	opt.AppCfg.MaxPrepopulate = 800
	opt.AppCfg.MaxIterCount = 800
	opt.PerTargetApps = 40
	opt.MaxSeeds = 400
	opt.Workers = 1 // single worker: measures per-event cost, not parallelism
	before := training.Metrics.SeedsScanned.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labels, err := training.Phase1(context.Background(), target, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(labels) == 0 {
			b.Fatal("phase-1 produced no labels")
		}
	}
	scanned := training.Metrics.SeedsScanned.Value() - before
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(scanned)/s, "seeds/s")
	}
}
