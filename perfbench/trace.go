package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/adt"
	"repro/internal/ann"
	"repro/internal/appgen"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/training"
)

// The traced runs call each layer's public functions from here, under
// spans of the benchmark's own tracer; the program itself runs untraced.
// Every request (or training target) is one trace: a root span and one
// child span per layer call, all sharing the trace id. Spans stay in memory
// and are written to spans.jsonl in the run directory at the end.

// Traced serving replays: requests replayed to warm the in-process server
// up, then requests measured, bounded by traceBudget.
const (
	traceWarm    = 2000
	traceMeasure = 4000
	traceBudget  = 6 * time.Second
)

// traceServing replays the workload's request sequence, one request at a
// time, into an in-process server built like brainy-serve, and times the
// handler and, on the same body, the layer calls the handler makes.
func traceServing(e env, rep *report, set *training.ModelSet, tr traffic) error {
	srv := serve.New(set, serve.Config{
		NoRequestLog: true,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer srv.Close()
	h := srv.Handler()
	brainy := core.New(set)
	det := drift.New(brainy.Suggest, drift.Config{})
	mem := &telemetry.MemoryExporter{}
	tracer := telemetry.NewTracer(mem)

	conns := connections()
	scripts := make([]*script, conns)
	for c := range scripts {
		scripts[c] = newScript(tr, c, conns)
	}
	warm, measure := traceWarm, traceMeasure
	if tr.ingest == nil {
		// A cold request costs ten hot ones.
		warm, measure = warm/10, measure/10
	}

	var deadline time.Time
	for i := 0; i < warm+measure; i++ {
		if i == warm {
			deadline = time.Now().Add(traceBudget)
		}
		if i > warm && time.Now().After(deadline) {
			break
		}
		kind, _, _, path, body := scripts[i%conns].request()
		id := fmt.Sprintf("perfbench-%06d", i)
		if i < warm {
			if code := serveOnce(h, newRequest(path, body, id)); code != http.StatusOK {
				return fmt.Errorf("traced warm-up request %d: status %d", i, code)
			}
			if kind == ingestReq {
				observeAll(det, body)
			}
			continue
		}

		rep.Attempted++
		ctx, root := tracer.Start(context.Background(), "request")
		root.SetStr("request_id", id)
		root.SetStr("type", kindName(kind))
		misses := srv.Metrics().CacheMisses.Value()
		req := newRequest(path, body, id)
		var code int
		inSpan(ctx, tracer, "serve.handler", func() { code = serveOnce(h, req) })
		missed := srv.Metrics().CacheMisses.Value() - misses
		if code != http.StatusOK {
			rep.fail("traced request %d: status %d", i, code)
		}
		var err error
		if kind == adviseReq {
			err = traceAdviseLayers(ctx, tracer, brainy, set, body, missed > 0)
		} else {
			err = traceIngestLayers(ctx, tracer, det, body)
		}
		if err != nil {
			rep.fail("traced request %d: %v", i, err)
		}
		root.End()
	}

	// Allocations: the next requests of the sequence, built beforehand so
	// that only the handler (and the batcher it wakes) allocates between
	// the two readings.
	n := measure / 4
	reqs := make([]*http.Request, n)
	for i := range reqs {
		_, _, _, path, body := scripts[i%conns].request()
		reqs[i] = newRequest(path, body, fmt.Sprintf("perfbench-alloc-%06d", i))
	}
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		recs[i].Body.Grow(64 << 10)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&m1)
	rep.Attempted += n
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			rep.fail("allocation request %d: status %d", i, rec.Code)
		}
	}
	rep.set("serve.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/float64(n), "count", n)
	rep.set("serve.alloc_kb_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(n), "KB", n)

	spans := mem.Spans()
	summarizeServingSpans(rep, spans)
	return writeSpans(filepath.Join(e.out, "spans.jsonl"), spans)
}

func kindName(k reqKind) string {
	if k == adviseReq {
		return "advise"
	}
	return "ingest"
}

func newRequest(path string, body []byte, id string) *http.Request {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("X-Request-ID", id)
	return req
}

func serveOnce(h http.Handler, req *http.Request) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// observeAll feeds an ingest body's windows to the replay detector, so it
// sees every instance's timeline from its first window.
func observeAll(det *drift.Detector, body []byte) {
	_ = profile.DecodeWindows(bytes.NewReader(body), func(w *profile.WindowRecord) error {
		_, _ = det.Observe(w, arch) // a missing model is a verdict, not a failure
		return nil
	})
}

// traceAdviseLayers times, on one advise body, the calls the advise handler
// makes into the layers below it: decode, featurisation, batched inference
// (when the handler missed the cache) with its ANN passes, and the plan.
func traceAdviseLayers(ctx context.Context, tracer *telemetry.Tracer, brainy *core.Brainy, set *training.ModelSet, body []byte, inferred bool) error {
	var ps []profile.Profile
	_, sp := tracer.Start(ctx, "profile.decode")
	err := profile.DecodeRecords(bytes.NewReader(body), func(p *profile.Profile) error {
		ps = append(ps, *p)
		return nil
	})
	sp.End()
	if err != nil {
		return err
	}

	_, sp = tracer.Start(ctx, "profile.vector")
	for i := range ps {
		ps[i].Vector()
	}
	sp.SetInt("n", int64(len(ps)))
	sp.End()

	if inferred {
		ptrs := make([]*profile.Profile, len(ps))
		for i := range ps {
			ptrs[i] = &ps[i]
		}
		_, sp = tracer.Start(ctx, "core.suggest_batch")
		brainy.SuggestBatch(ptrs, arch)
		sp.End()

		// The passes SuggestBatch makes: one per model the trace reaches,
		// over that model's rows.
		rows := map[training.Key][][]float64{}
		var order []training.Key
		for i := range ps {
			k := training.Key{Kind: ps[i].Kind, OrderAware: ps[i].OrderAware, Arch: arch}
			if _, ok := rows[k]; !ok {
				order = append(order, k)
			}
			rows[k] = append(rows[k], ps[i].Vector())
		}
		for _, k := range order {
			m, ok := set.Get(k.Kind, k.OrderAware, k.Arch)
			if !ok {
				continue
			}
			_, sp = tracer.Start(ctx, "ann.pass")
			m.Net.ProbabilitiesBatch(rows[k])
			sp.SetInt("n", int64(len(rows[k])))
			sp.End()
		}
	}

	report := brainy.Analyze(ps, arch)
	_, sp = tracer.Start(ctx, "core.plan")
	report.Plan()
	sp.End()
	return nil
}

// traceIngestLayers times, on one ingest body, the window decode and one
// drift evaluation per window.
func traceIngestLayers(ctx context.Context, tracer *telemetry.Tracer, det *drift.Detector, body []byte) error {
	var ws []profile.WindowRecord
	_, sp := tracer.Start(ctx, "profile.decode_windows")
	err := profile.DecodeWindows(bytes.NewReader(body), func(w *profile.WindowRecord) error {
		ws = append(ws, *w)
		return nil
	})
	sp.End()
	if err != nil {
		return err
	}
	for i := range ws {
		_, sp = tracer.Start(ctx, "drift.observe")
		_, _ = det.Observe(&ws[i], arch) // a missing model is a verdict, not a failure
		sp.End()
	}
	return nil
}

// layerSpans are the layer calls a handler's self time excludes: what the
// handler calls below it. ann.pass and profile.vector run inside
// core.suggest_batch and the cache key, so they are not subtracted again.
var layerSpans = map[string]bool{
	"profile.decode":         true,
	"profile.decode_windows": true,
	"core.suggest_batch":     true,
	"core.plan":              true,
	"drift.observe":          true,
}

// inSpan runs f under a span of the given name, a child of ctx's span.
func inSpan(ctx context.Context, tracer *telemetry.Tracer, name string, f func()) {
	_, sp := tracer.Start(ctx, name)
	f()
	sp.End()
}

// layerTime is the total of one span name: time, calls, and the units of
// work (profiles, rows) the calls carried in their "n" attribute.
type layerTime struct {
	sum   time.Duration
	calls int
	units int64
}

func (t layerTime) usPerCall() float64 {
	return float64(t.sum) / float64(time.Microsecond) / float64(t.calls)
}

func layerTimes(spans []telemetry.SpanData) map[string]layerTime {
	out := map[string]layerTime{}
	for _, s := range spans {
		t := out[s.Name]
		t.sum += s.Duration()
		t.calls++
		n, _ := s.Attr("n").(int64)
		t.units += n
		out[s.Name] = t
	}
	return out
}

// summarizeServingSpans turns the traced requests into per-layer metrics:
// mean time per call of each layer, and each request type's handler and
// self time.
func summarizeServingSpans(rep *report, spans []telemetry.SpanData) {
	lt := layerTimes(spans)
	for name, metric := range map[string]string{
		"profile.decode":         "profile.decode_us",
		"profile.decode_windows": "profile.decode_windows_us",
		"core.suggest_batch":     "core.suggest_batch_us",
		"ann.pass":               "ann.pass_us",
		"core.plan":              "core.plan_us",
		"drift.observe":          "drift.observe_us",
	} {
		if t := lt[name]; t.calls > 0 {
			rep.set(metric, t.usPerCall(), "us", t.calls)
		}
	}
	if t := lt["profile.vector"]; t.units > 0 {
		rep.set("profile.vector_us", float64(t.sum)/float64(time.Microsecond)/float64(t.units), "us", int(t.units))
	}
	if t := lt["ann.pass"]; t.calls > 0 {
		rep.set("ann.rows_per_pass", float64(t.units)/float64(t.calls), "count", t.calls)
	}

	typ := map[telemetry.ID]string{} // trace → request type
	handler := map[telemetry.ID]time.Duration{}
	below := map[telemetry.ID]time.Duration{}
	for _, s := range spans {
		switch {
		case s.Name == "request":
			typ[s.TraceID], _ = s.Attr("type").(string)
		case s.Name == "serve.handler":
			handler[s.TraceID] = s.Duration()
		case layerSpans[s.Name]:
			below[s.TraceID] += s.Duration()
		}
	}
	for _, kind := range []string{"advise", "ingest"} {
		var h, self time.Duration
		n := 0
		for id, t := range typ {
			if t == kind {
				h += handler[id]
				self += handler[id] - below[id]
				n++
			}
		}
		if n > 0 {
			us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
			rep.set("serve.handler_us."+kind, us(h), "us", n)
			rep.set("serve.self_us."+kind, us(self), "us", n)
		}
	}
}

func writeSpans(path string, spans []telemetry.SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	exp := telemetry.NewJSONLinesExporter(f) // Close closes f
	for _, s := range spans {
		exp.ExportSpan(s)
	}
	if err := exp.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// traceTrain runs the train workload's pipeline in process, one target at
// a time on one worker, timing each stage and, for every seed Phase I
// scanned, the application generator and the candidate simulations. The
// models it fits must be the registry brainy-train wrote for the same
// budget.
func traceTrain(e env, rep *report, want trainRun) error {
	mem := &telemetry.MemoryExporter{}
	tracer := telemetry.NewTracer(mem)
	annCfg := ann.DefaultConfig()
	annCfg.Epochs = trainEpochs
	opt := training.DefaultOptions(machine.Core2())
	opt.PerTargetApps = trainApps
	opt.MaxSeeds = 20 * trainApps
	opt.AppCfg.TotalInterfCalls = trainCalls
	opt.AppCfg.MaxPrepopulate = 4 * trainCalls
	opt.AppCfg.MaxIterCount = 4 * trainCalls
	opt.Workers = 1

	// The library calls get a context of their own: spans inside the
	// program are not this benchmark's to record.
	lib := context.Background()
	set := training.NewModelSet()
	var accuracy []float64
	targets := adt.Targets()
	var scanned, labels int
	var events uint64
	for _, tgt := range targets {
		rep.Attempted++
		ctx, root := tracer.Start(context.Background(), "target")
		root.SetStr("target", tgt.Kind.String())
		root.SetAttr("order_aware", tgt.OrderAware)
		var (
			labs []training.SeedLabel
			ds   training.Dataset
			m    *training.Model
			err  error
		)
		before := training.Metrics.SeedsScanned.Value()
		inSpan(ctx, tracer, "training.phase1", func() { labs, err = training.Phase1(lib, tgt, opt) })
		if err != nil {
			return err
		}
		n := int(training.Metrics.SeedsScanned.Value() - before)
		scanned += n
		labels += len(labs)
		// With one worker Phase I simulates a prefix of the seed range.
		for i := 0; i < n; i++ {
			var app appgen.App
			var results []appgen.Result
			inSpan(ctx, tracer, "appgen.generate", func() { app = appgen.Generate(opt.AppCfg, tgt, opt.SeedBase+int64(i)) })
			inSpan(ctx, tracer, "appgen.run_all", func() { results = app.RunAll(opt.AppCfg, opt.Arch) })
			for _, r := range results {
				events += r.Profile.HW.Events()
			}
		}
		inSpan(ctx, tracer, "training.phase2", func() { ds, err = training.Phase2(lib, tgt, labs, opt) })
		if err != nil {
			return err
		}
		inSpan(ctx, tracer, "training.fit", func() { m, err = training.TrainModel(ds, opt.Arch.Name, annCfg) })
		if err != nil {
			return err
		}
		set.Put(m)
		var acc float64
		inSpan(ctx, tracer, "training.validate", func() {
			acc, err = training.Validate(lib, m, opt, trainValidate, opt.SeedBase+int64(opt.MaxSeeds))
		})
		if err != nil {
			return err
		}
		accuracy = append(accuracy, acc)
		root.End()
	}

	if fp := set.Fingerprint(); fp != want.fingerprint {
		rep.fail("in-process registry %s, brainy-train wrote %s", fp, want.fingerprint)
	}
	sort.Float64s(accuracy)
	if !reflect.DeepEqual(accuracy, want.valAccuracy) {
		rep.fail("in-process validation accuracy %v, brainy-train reported %v", accuracy, want.valAccuracy)
	}
	spans := mem.Spans()
	lt := layerTimes(spans)
	for _, stage := range []string{"phase1", "phase2", "fit", "validate"} {
		t := lt["training."+stage]
		rep.set("training."+stage+"_s", t.sum.Seconds(), "s", t.calls)
	}
	fit := lt["training.fit"]
	rep.set("ann.epoch_ms", 1000*fit.sum.Seconds()/float64(fit.calls*trainEpochs), "ms", fit.calls*trainEpochs)
	gen, run := lt["appgen.generate"], lt["appgen.run_all"]
	if scanned > 0 {
		rep.set("appgen.generate_us", gen.usPerCall(), "us", gen.calls)
		rep.set("appgen.run_all_ms", run.usPerCall()/1000, "ms", run.calls)
		rep.set("machine.mevents_s", float64(events)/run.sum.Seconds()/1e6, "Mevent/s", run.calls)
		rep.set("training.decisive_ratio", float64(labels)/float64(scanned), "ratio", scanned)
	}
	rep.set("machine.events", float64(events), "count", scanned)
	return writeSpans(filepath.Join(e.out, "spans.jsonl"), spans)
}
