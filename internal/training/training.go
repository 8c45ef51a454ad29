// Package training implements the two-phase training framework of
// Section 4.3. Phase-I (Algorithm 1) generates seeded synthetic
// applications, runs the interchangeable candidates on the target machine
// (abandoning each once it can no longer win, appgen's App.Label) and
// records (seed, best data structure) pairs — keeping a label only when
// the winner beats every alternative by the 5% margin. Phase-II
// (Algorithm 2) takes each recorded seed's instrumented run of the
// *original* container, collects the software and hardware features, and
// labels the feature vector with the Phase-I winner; the pipeline reuses
// Phase-I's run, and the exported Phase2 replays the seed. One ANN is
// trained per (original container, microarchitecture).
//
// All entry points take a context and run as a streaming pipeline on a
// persistent worker pool; see pipeline.go. TrainArchs additionally supports
// checkpoint/resume via a Checkpointer (persist.go).
package training

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/adt"
	"repro/internal/ann"
	"repro/internal/appgen"
	"repro/internal/machine"
	"repro/internal/profile"
)

// Options configures a training run.
type Options struct {
	AppCfg        appgen.Config
	Arch          machine.Config
	PerTargetApps int     // Phase-I stops after this many labelled apps (the "need more sets" threshold)
	Margin        float64 // best-DS decisiveness margin; the paper uses 0.05
	MaxSeeds      int     // Phase-I safety bound on generated applications
	SeedBase      int64   // first seed; training and validation use disjoint ranges
	Workers       int     // parallel app executions; 0 = GOMAXPROCS
}

// DefaultOptions returns a laptop-scale training budget.
func DefaultOptions(arch machine.Config) Options {
	return Options{
		AppCfg:        appgen.DefaultConfig(),
		Arch:          arch,
		PerTargetApps: 300,
		Margin:        0.05,
		MaxSeeds:      4000,
		SeedBase:      1,
		Workers:       0,
	}
}

func (o *Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SeedLabel is one Phase-I record: the application seed and its best kind.
type SeedLabel struct {
	Seed int64
	Best adt.Kind
}

// Phase1 implements Algorithm 1 for one model target. It returns up to
// opt.PerTargetApps (seed, best) pairs, scanning at most opt.MaxSeeds
// seeds. Execution-time measurement is the simulated cycle count.
//
// Seeds are simulated on a worker pool, but labels are selected in strict
// seed order and dispatch stops as soon as enough decisive labels exist, so
// the result is deterministic for a fixed Options and identical to an
// exhaustive sequential scan. Cancel ctx to abandon the scan; the context's
// error is returned.
func Phase1(ctx context.Context, target adt.ModelTarget, opt Options) ([]SeedLabel, error) {
	p := newPool(opt.workers())
	defer p.close()
	labels, _, _, _, err := phase1(ctx, target, opt, p)
	return labels, err
}

// Dataset is the Phase-II product for one target: feature vectors from the
// instrumented original container, labelled with candidate indices.
type Dataset struct {
	Target     adt.ModelTarget
	Candidates []adt.Kind // label index space; original first
	Examples   []ann.Example
	Profiles   []profile.Profile
	Dropped    int // labels discarded because the winner was outside Candidates
}

// CandidateIndex returns the label index of kind, or -1.
func (d *Dataset) CandidateIndex(kind adt.Kind) int {
	for i, k := range d.Candidates {
		if k == kind {
			return i
		}
	}
	return -1
}

// Phase2 implements Algorithm 2: regenerate each labelled application from
// its seed, execute the original container under instrumentation, and emit
// the (features, best) training pair. Labels whose winner is outside the
// candidate space are counted in Dataset.Dropped; if every label is
// dropped, Phase2 returns an error.
func Phase2(ctx context.Context, target adt.ModelTarget, labels []SeedLabel, opt Options) (Dataset, error) {
	p := newPool(opt.workers())
	defer p.close()
	ds, _, err := phase2(ctx, target, labels, nil, opt, p)
	return ds, err
}

// Model is one trained predictor for (target container, architecture).
type Model struct {
	Target     adt.ModelTarget
	Arch       string
	Candidates []adt.Kind
	Net        *ann.Network
}

// Predict maps a profile of the original container to the suggested kind.
func (m *Model) Predict(p *profile.Profile) adt.Kind {
	return m.Candidates[m.Net.Predict(p.Vector())]
}

// TrainModel fits an ANN on the dataset.
func TrainModel(ds Dataset, archName string, cfg ann.Config) (*Model, error) {
	if len(ds.Examples) == 0 {
		return nil, fmt.Errorf("training: empty dataset for %v/%v", ds.Target.Kind, archName)
	}
	net := ann.New(profile.NumFeatures, len(ds.Candidates), cfg)
	if _, err := net.Train(ds.Examples); err != nil {
		return nil, fmt.Errorf("training: %v/%v: %w", ds.Target.Kind, archName, err)
	}
	return &Model{Target: ds.Target, Arch: archName, Candidates: ds.Candidates, Net: net}, nil
}

// Key identifies a model in a ModelSet.
type Key struct {
	Kind       adt.Kind
	OrderAware bool
	Arch       string
}

// ModelSet is the registry of trained models, one per (original container,
// order-awareness, microarchitecture), mirroring Figure 3.
type ModelSet struct {
	models map[Key]*Model
}

// NewModelSet returns an empty registry.
func NewModelSet() *ModelSet { return &ModelSet{models: map[Key]*Model{}} }

// Put registers a model.
func (s *ModelSet) Put(m *Model) {
	s.models[Key{Kind: m.Target.Kind, OrderAware: m.Target.OrderAware, Arch: m.Arch}] = m
}

// Get looks up the model for a target and architecture.
func (s *ModelSet) Get(kind adt.Kind, orderAware bool, arch string) (*Model, bool) {
	m, ok := s.models[Key{Kind: kind, OrderAware: orderAware, Arch: arch}]
	return m, ok
}

// Len returns the number of registered models.
func (s *ModelSet) Len() int { return len(s.models) }

// Oracle runs the candidates of the app, each on a reset machine that
// behaves as a fresh one, and returns the empirically fastest kind — the
// paper's Oracle scheme. It labels through appgen's App.Label, which
// abandons a candidate once it can no longer be the fastest, and picks the
// kind Best(RunAll(...), 0) picks.
func Oracle(app *appgen.App, cfg appgen.Config, arch machine.Config) adt.Kind {
	best, _, _, _ := app.Label(cfg, arch, 0)
	return best
}

// Validate implements the Figure 9 protocol: generate n fresh applications
// (seeds disjoint from training) for the model's target, label each with
// the oracle, and return the fraction the model predicts correctly.
func Validate(ctx context.Context, m *Model, opt Options, n int, seedBase int64) (float64, error) {
	p := newPool(opt.workers())
	defer p.close()
	acc, _, err := validate(ctx, m, opt, n, seedBase, p)
	return acc, err
}
