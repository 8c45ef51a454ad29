// Streaming training pipeline. Phase-I, Phase-II, validation, and model
// fitting all execute as jobs on one shared, persistent worker pool, so
// per-target and per-architecture work interleaves instead of running in
// sequential outer loops. Phase-I streams: the dispatcher stops handing out
// new seeds as soon as the contiguous completed prefix holds
// Options.PerTargetApps decisive labels, while collection stays in strict
// seed order so the output is bit-identical to an exhaustive sequential
// scan. Everything is cancellable via context and, when a Checkpointer is
// configured, resumable from the last completed per-target stage.
//
// The pipeline is instrumented end to end: each (target, architecture) unit
// runs under a span, each stage (Phase-I scan, Phase-II instrumentation,
// ANN fit, validation, checkpoint writes) under a child span carrying the
// aggregated simulator counters, and the package-level Metrics counters
// tick as work completes. With no tracer configured the spans are shared
// no-ops that cost nothing.

package training

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adt"
	"repro/internal/ann"
	"repro/internal/appgen"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// pool is a persistent worker pool. Jobs are plain closures; submit blocks
// until a worker accepts the job, which bounds the amount of in-flight
// work without per-batch barriers.
type pool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

func newPool(workers int) *pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pool{jobs: make(chan func())}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p
}

// submit hands f to a worker, or fails with the context's error if ctx is
// cancelled first. Accepted jobs always run.
func (p *pool) submit(ctx context.Context, f func()) error {
	select {
	case p.jobs <- f:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close stops the workers after all accepted jobs have finished.
func (p *pool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// setCounterAttrs attaches the aggregated simulator counters a stage
// consumed to its span, using the typed setters so a disabled tracer costs
// no boxing allocations.
func setCounterAttrs(sp *telemetry.Span, hw machine.Counters) {
	sp.SetUint("sim.events", hw.Events())
	sp.SetUint("sim.l1_misses", hw.L1Misses)
	sp.SetUint("sim.l2_misses", hw.L2Misses)
	sp.SetUint("sim.tlb_misses", hw.TLBMisses)
	sp.SetUint("sim.mispredicts", hw.Mispredicts)
	sp.SetFloat("sim.cycles", hw.Cycles)
}

// countEvents folds one stage's counter aggregate into the pipeline
// metrics (cycles are counted where the work happens, events here).
func countEvents(hw machine.Counters) {
	Metrics.EventsSimulated.Add(hw.Events())
}

// phase1 is the streaming core of Algorithm 1 for one target on a shared
// pool. It returns the labels, the number of seeds actually simulated, the
// aggregated simulator counters, and the context's error if the run was
// cancelled.
//
// Determinism: seeds are dispatched in ascending order and folded into the
// label list only when they become part of the contiguous completed
// prefix, so the result is exactly "the first PerTargetApps decisive seeds
// in [SeedBase, SeedBase+MaxSeeds), in seed order" — the same set the
// batch-synchronous implementation produced. Early stopping only affects
// how many seeds past the saturation point are simulated.
func phase1(ctx context.Context, target adt.ModelTarget, opt Options, p *pool) ([]SeedLabel, int, machine.Counters, error) {
	ctx, span := telemetry.StartSpan(ctx, "phase1")
	defer span.End()
	type outcome struct {
		idx      int
		best     adt.Kind
		decisive bool
		ran      bool
		hw       machine.Counters
	}
	resCh := make(chan outcome, 64)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	defer halt()

	var dispatched atomic.Int64
	dispatchDone := make(chan struct{})
	go func() {
		defer close(dispatchDone)
		for i := 0; i < opt.MaxSeeds; i++ {
			idx := i
			seed := opt.SeedBase + int64(i)
			job := func() {
				o := outcome{idx: idx}
				// A job accepted before saturation/cancellation may start
				// after it; skip the simulation but still report in, so the
				// collector's dispatched/received accounting closes.
				if ctx.Err() == nil {
					select {
					case <-stop:
					default:
						app := appgen.Generate(opt.AppCfg, target, seed)
						results := app.RunAll(opt.AppCfg, opt.Arch)
						best, decisive := appgen.Best(results, opt.Margin)
						o.best = results[best].Kind
						o.decisive = decisive
						o.ran = true
						for _, r := range results {
							o.hw = o.hw.Add(r.Profile.HW)
						}
					}
				}
				resCh <- o
			}
			select {
			case p.jobs <- job:
				dispatched.Add(1)
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()

	var (
		labels   []SeedLabel
		hw       machine.Counters
		pending  = map[int]outcome{}
		next     int
		received int64
		scanned  int
		done     = dispatchDone
	)
	for {
		select {
		case o := <-resCh:
			received++
			if o.ran {
				scanned++
				hw = hw.Add(o.hw)
				Metrics.SeedsScanned.Inc()
				Metrics.CyclesSimulated.Add(o.hw.Cycles)
			}
			pending[o.idx] = o
			// Fold the contiguous completed prefix, in seed order.
			for {
				q, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if q.ran && q.decisive && len(labels) < opt.PerTargetApps {
					labels = append(labels, SeedLabel{Seed: opt.SeedBase + int64(next), Best: q.best})
					Metrics.LabelsFound.Inc()
					if len(labels) == opt.PerTargetApps {
						halt() // saturated: stop dispatching, drain in-flight
					}
				}
				next++
			}
		case <-done:
			done = nil // dispatched count is now final
		}
		if done == nil && received == dispatched.Load() {
			break
		}
	}
	countEvents(hw)
	span.SetInt("seeds_scanned", int64(scanned))
	span.SetInt("labels", int64(len(labels)))
	setCounterAttrs(span, hw)
	if err := ctx.Err(); err != nil {
		return nil, scanned, hw, err
	}
	return labels, scanned, hw, nil
}

// phase2 is the shared-pool core of Algorithm 2. Alongside the dataset it
// returns the aggregated simulator counters of the instrumented replays.
func phase2(ctx context.Context, target adt.ModelTarget, labels []SeedLabel, opt Options, p *pool) (Dataset, machine.Counters, error) {
	ctx, span := telemetry.StartSpan(ctx, "phase2")
	defer span.End()
	ds := Dataset{
		Target:     target,
		Candidates: adt.CandidatesWithOriginal(target.Kind, target.OrderAware),
	}
	type pair struct {
		prof  profile.Profile
		label int
	}
	n := len(labels)
	results := make([]pair, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		err := p.submit(ctx, func() {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			lab := labels[i]
			app := appgen.Generate(opt.AppCfg, target, lab.Seed)
			res := app.RunFresh(opt.AppCfg, target.Kind, opt.Arch)
			Metrics.CyclesSimulated.Add(res.Cycles)
			results[i] = pair{prof: res.Profile, label: ds.CandidateIndex(lab.Best)}
		})
		if err != nil {
			wg.Done() // the rejected job never ran
			break
		}
	}
	wg.Wait()
	var hw machine.Counters
	for i := range results {
		hw = hw.Add(results[i].prof.HW)
	}
	countEvents(hw)
	span.SetInt("labels", int64(n))
	setCounterAttrs(span, hw)
	if err := ctx.Err(); err != nil {
		return Dataset{}, hw, err
	}
	for _, r := range results {
		if r.label < 0 {
			// Phase-I recorded a winner that is not in this target's
			// candidate space — a corrupt label file or a candidate-set
			// drift between phases. Count it; silence would shrink the
			// dataset invisibly.
			ds.Dropped++
			Metrics.Phase2Dropped.Inc()
			continue
		}
		ds.Examples = append(ds.Examples, ann.Example{X: r.prof.Vector(), Label: r.label})
		ds.Profiles = append(ds.Profiles, r.prof)
	}
	span.SetInt("examples", int64(len(ds.Examples)))
	span.SetInt("dropped", int64(ds.Dropped))
	Metrics.Phase2Examples.Add(uint64(len(ds.Examples)))
	if n > 0 && ds.Dropped == n {
		return Dataset{}, hw, fmt.Errorf("training: phase2 for %v dropped all %d examples (winners outside the candidate space)", target.Kind, n)
	}
	return ds, hw, nil
}

// validate is the shared-pool core of the Figure 9 protocol: n fresh
// applications, oracle-labelled, scored against the model. It returns the
// accuracy and the aggregated simulator counters of the validation runs.
func validate(ctx context.Context, m *Model, opt Options, n int, seedBase int64, p *pool) (float64, machine.Counters, error) {
	var hw machine.Counters
	if n <= 0 {
		return 0, hw, nil
	}
	ctx, span := telemetry.StartSpan(ctx, "validate")
	defer span.End()
	var correct atomic.Int64
	hws := make([]machine.Counters, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		seed := seedBase + int64(i)
		wg.Add(1)
		err := p.submit(ctx, func() {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			app := appgen.Generate(opt.AppCfg, m.Target, seed)
			// Inline Oracle so the candidate sweep's counters are kept.
			results := app.RunAll(opt.AppCfg, opt.Arch)
			best, _ := appgen.Best(results, 0)
			oracle := results[best].Kind
			for _, r := range results {
				hws[i] = hws[i].Add(r.Profile.HW)
			}
			run := app.RunFresh(opt.AppCfg, m.Target.Kind, opt.Arch)
			hws[i] = hws[i].Add(run.Profile.HW)
			if m.Predict(&run.Profile) == oracle {
				correct.Add(1)
			}
		})
		if err != nil {
			wg.Done()
			break
		}
	}
	wg.Wait()
	for i := range hws {
		hw = hw.Add(hws[i])
	}
	countEvents(hw)
	Metrics.CyclesSimulated.Add(hw.Cycles)
	Metrics.ValidationApps.Add(uint64(n))
	acc := float64(correct.Load()) / float64(n)
	span.SetInt("apps", int64(n))
	span.SetFloat("accuracy", acc)
	setCounterAttrs(span, hw)
	if err := ctx.Err(); err != nil {
		return 0, hw, err
	}
	return acc, hw, nil
}

// PipelineConfig tunes a TrainArchs run.
type PipelineConfig struct {
	// Workers sizes the shared pool; 0 means GOMAXPROCS.
	Workers int
	// Checkpoint, when non-nil, persists each target's Phase-I labels,
	// Phase-II dataset, and trained model as they complete, and resumes
	// finished stages on the next run.
	Checkpoint *Checkpointer
	// OnTarget, when non-nil, is invoked as each target's model completes
	// (including targets restored from a checkpoint). Calls are serialized.
	OnTarget func(TargetResult)
	// Tracer, when enabled, records one span per (target, architecture)
	// unit plus child spans for every stage, each carrying the simulator
	// counters it consumed. Nil disables tracing at zero cost.
	Tracer *telemetry.Tracer
	// ValidationApps, when positive, adds a validation stage after each
	// model is fitted: that many fresh oracle-labelled applications (seeds
	// disjoint from the Phase-I range) are scored against the model and the
	// accuracy lands in TargetResult.ValAccuracy. Targets fully restored
	// from a checkpoint skip validation.
	ValidationApps int
}

// StageTimes is the per-stage wall-clock breakdown of one target unit.
// Stages that did not run (resumed, or validation disabled) are zero.
type StageTimes struct {
	Phase1     time.Duration `json:"phase1"`
	Phase2     time.Duration `json:"phase2"`
	Fit        time.Duration `json:"fit"`
	Validate   time.Duration `json:"validate"`
	Checkpoint time.Duration `json:"checkpoint"`
}

// TargetResult reports one completed (target, architecture) unit.
type TargetResult struct {
	Model         *Model
	Arch          string
	SeedsScanned  int     // Phase-I apps actually simulated (0 when resumed)
	Labels        int     // decisive labels recorded
	Examples      int     // Phase-II examples produced
	Dropped       int     // Phase-II examples dropped (winner outside candidates)
	TrainAccuracy float64 // model accuracy on its own training set (0 when fully resumed)
	ValApps       int     // validation applications scored (0 when disabled or resumed)
	ValAccuracy   float64 // oracle-validation accuracy (meaningful when ValApps > 0)
	Resumed       bool    // at least one stage came from a checkpoint
	Elapsed       time.Duration
	Stages        StageTimes       // wall clock by stage
	HW            machine.Counters // aggregated simulator counters of fresh work
	LabelDist     map[string]int   // decisive label distribution by winning kind
}

// TrainArchs trains every (target, architecture) pair on one shared worker
// pool, interleaving Phase-I seed simulation, Phase-II instrumentation, and
// ANN fitting across all pairs. The first failure cancels the rest. With a
// cancelled context it returns the context's error; completed per-target
// stages are already checkpointed, so a subsequent run with the same
// Checkpointer resumes where this one stopped.
func TrainArchs(ctx context.Context, opts []Options, annCfg ann.Config, targets []adt.ModelTarget, cfg PipelineConfig) (*ModelSet, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if cfg.Tracer.Enabled() && telemetry.SpanFromContext(ctx) == nil {
		var root *telemetry.Span
		ctx, root = cfg.Tracer.Start(ctx, "train")
		root.SetInt("archs", int64(len(opts)))
		root.SetInt("targets", int64(len(targets)))
		defer root.End()
	}
	if cfg.Checkpoint != nil {
		for _, opt := range opts {
			if err := cfg.Checkpoint.EnsureMeta(opt, annCfg); err != nil {
				return nil, err
			}
		}
	}
	p := newPool(cfg.Workers)
	defer p.close()

	set := NewModelSet()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for _, opt := range opts {
		for _, tgt := range targets {
			opt, tgt := opt, tgt
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := trainTarget(ctx, tgt, opt, annCfg, p, cfg)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil {
						if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
							firstErr = err
						} else {
							firstErr = fmt.Errorf("training %v/%s: %w", tgt.Kind, opt.Arch.Name, err)
						}
						cancel()
					}
					return
				}
				set.Put(res.Model)
				if cfg.OnTarget != nil {
					cfg.OnTarget(res)
				}
			}()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return set, nil
}

// trainTarget runs (or resumes) the full per-target pipeline: Phase-I
// labels, Phase-II dataset, ANN fit, optional validation — checkpointing
// each stage as it lands and timing each stage for the run report.
func trainTarget(ctx context.Context, tgt adt.ModelTarget, opt Options, annCfg ann.Config, p *pool, cfg PipelineConfig) (TargetResult, error) {
	start := time.Now()
	cp := cfg.Checkpoint
	res := TargetResult{Arch: opt.Arch.Name}

	ctx, span := telemetry.StartSpan(ctx, "target")
	defer span.End()
	span.SetStr("target", fmt.Sprint(tgt.Kind))
	span.SetAttr("order_aware", tgt.OrderAware)
	span.SetStr("arch", opt.Arch.Name)

	// checkpointed wraps one checkpoint write in a span and folds its wall
	// clock into the stage breakdown.
	checkpointed := func(stage string, write func() error) error {
		if cp == nil {
			return nil
		}
		t0 := time.Now()
		_, sp := telemetry.StartSpan(ctx, "checkpoint")
		sp.SetStr("stage", stage)
		err := write()
		sp.End()
		res.Stages.Checkpoint += time.Since(t0)
		return err
	}

	if cp != nil {
		m, ok, err := cp.LoadModel(opt.Arch.Name, tgt)
		if err != nil {
			return res, err
		}
		if ok {
			Metrics.TargetsResumed.Inc()
			span.SetAttr("resumed", true)
			res.Model = m
			res.Resumed = true
			res.Elapsed = time.Since(start)
			return res, nil
		}
	}

	var (
		labels     []SeedLabel
		haveLabels bool
		err        error
	)
	if cp != nil {
		labels, haveLabels, err = cp.LoadLabels(opt.Arch.Name, tgt)
		if err != nil {
			return res, err
		}
		res.Resumed = res.Resumed || haveLabels
	}
	if !haveLabels {
		t0 := time.Now()
		var hw machine.Counters
		labels, res.SeedsScanned, hw, err = phase1(ctx, tgt, opt, p)
		res.Stages.Phase1 = time.Since(t0)
		res.HW = res.HW.Add(hw)
		if err != nil {
			return res, err
		}
		if err := checkpointed("labels", func() error {
			return cp.SaveLabels(opt.Arch.Name, tgt, labels)
		}); err != nil {
			return res, err
		}
	}
	res.Labels = len(labels)
	res.LabelDist = make(map[string]int, 4)
	for _, l := range labels {
		res.LabelDist[fmt.Sprint(l.Best)]++
	}

	var (
		ds     Dataset
		haveDS bool
	)
	if cp != nil {
		ds, haveDS, err = cp.LoadDataset(opt.Arch.Name, tgt)
		if err != nil {
			return res, err
		}
		res.Resumed = res.Resumed || haveDS
	}
	if !haveDS {
		t0 := time.Now()
		var hw machine.Counters
		ds, hw, err = phase2(ctx, tgt, labels, opt, p)
		res.Stages.Phase2 = time.Since(t0)
		res.HW = res.HW.Add(hw)
		if err != nil {
			return res, err
		}
		if err := checkpointed("dataset", func() error {
			return cp.SaveDataset(opt.Arch.Name, ds)
		}); err != nil {
			return res, err
		}
	}
	res.Examples = len(ds.Examples)
	res.Dropped = ds.Dropped

	// Fit the ANN as one unit of pool work, so model fitting competes with
	// simulation for the same CPU budget instead of oversubscribing.
	var (
		m       *Model
		terr    error
		done    = make(chan struct{})
		fitTime = time.Now()
	)
	_, fitSpan := telemetry.StartSpan(ctx, "fit")
	fitSpan.SetInt("examples", int64(len(ds.Examples)))
	if err := p.submit(ctx, func() {
		defer close(done)
		if ctx.Err() != nil {
			terr = ctx.Err()
			return
		}
		m, terr = TrainModel(ds, opt.Arch.Name, annCfg)
	}); err != nil {
		fitSpan.End()
		return res, err
	}
	<-done
	fitSpan.End()
	res.Stages.Fit = time.Since(fitTime)
	if terr != nil {
		return res, terr
	}
	Metrics.ModelsTrained.Inc()
	if err := checkpointed("model", func() error {
		return cp.SaveModel(m)
	}); err != nil {
		return res, err
	}
	res.Model = m
	res.TrainAccuracy = m.Net.Accuracy(ds.Examples)

	if cfg.ValidationApps > 0 {
		// Validation seeds live past the Phase-I scan range, so they are
		// disjoint from training for any MaxSeeds.
		t0 := time.Now()
		acc, hw, err := validate(ctx, m, opt, cfg.ValidationApps, opt.SeedBase+int64(opt.MaxSeeds), p)
		res.Stages.Validate = time.Since(t0)
		res.HW = res.HW.Add(hw)
		if err != nil {
			return res, err
		}
		res.ValApps = cfg.ValidationApps
		res.ValAccuracy = acc
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
