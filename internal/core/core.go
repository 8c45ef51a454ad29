// Package core is Brainy itself: the data-structure selection tool of the
// paper. Given profiles of how an application's containers behaved on a
// specific microarchitecture — collected through the instrumented library in
// internal/profile — Brainy consults the per-container ANN models trained by
// internal/training and reports, per construction site, which alternative
// implementation would have been fastest, prioritized by how much of the
// application's time each container accounts for (Section 3's usage model).
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/adt"
	"repro/internal/profile"
	"repro/internal/training"
)

// Brainy is the selector: a set of trained models plus the report logic.
type Brainy struct {
	models  *training.ModelSet
	explain bool
}

// New builds a selector around a trained model registry.
func New(models *training.ModelSet) *Brainy {
	if models == nil {
		models = training.NewModelSet()
	}
	return &Brainy{models: models}
}

// Models exposes the underlying registry.
func (b *Brainy) Models() *training.ModelSet { return b.models }

// SetExplain toggles decision provenance: when on, every Suggestion carries
// an Explanation with the full per-kind class distribution the verdict was
// picked from. Off (the default) keeps suggestions lean — the CLI report
// does not need the losing probabilities.
func (b *Brainy) SetExplain(on bool) { b.explain = on }

// KindProb is one entry of a class distribution: a candidate kind and the
// model probability assigned to it.
type KindProb struct {
	Kind adt.Kind `json:"kind"`
	Prob float64  `json:"prob"`
}

// Explanation is the provenance of one Suggestion: the model's full class
// distribution, sorted by descending probability (the suggested kind first).
type Explanation struct {
	Probs []KindProb `json:"probs"`
}

// Suggestion is Brainy's verdict for one container instance.
type Suggestion struct {
	Context    string   `json:"context"`    // construction site
	Original   adt.Kind `json:"original"`   // what the application uses today
	Suggested  adt.Kind `json:"suggested"`  // what Brainy would use instead
	Confidence float64  `json:"confidence"` // model probability of the suggested class
	CyclesPct  float64  `json:"cycles_pct"` // share of profiled cycles this container accounts for
	Replace    bool     `json:"replace"`    // Suggested != Original

	// Memory estimates at the container's observed high-water size: the
	// bloat dimension of a replacement. A positive MemDeltaPct means the
	// suggested implementation uses more memory.
	MemOriginal  uint64  `json:"mem_original"`
	MemSuggested uint64  `json:"mem_suggested"`
	MemDeltaPct  float64 `json:"mem_delta_pct"`

	// Explanation carries the full class distribution behind the verdict.
	// Nil unless the Brainy that produced the suggestion has SetExplain on.
	Explanation *Explanation `json:"explanation,omitempty"`
}

// String formats the suggestion as one report line.
func (s Suggestion) String() string {
	verdict := "keep"
	if s.Replace {
		verdict = "replace with " + s.Suggested.String()
	}
	mem := ""
	if s.Replace && s.MemOriginal > 0 {
		mem = fmt.Sprintf(", memory %+.0f%%", s.MemDeltaPct)
	}
	return fmt.Sprintf("%-40s %-9s -> %-28s (%.0f%% of cycles, confidence %.2f%s)",
		s.Context, s.Original, verdict, s.CyclesPct*100, s.Confidence, mem)
}

// Suggest runs the model for one profile on the named architecture.
func (b *Brainy) Suggest(p *profile.Profile, arch string) (Suggestion, error) {
	m, ok := b.models.Get(p.Kind, p.OrderAware, arch)
	if !ok {
		return Suggestion{}, fmt.Errorf("core: no model for %v (orderAware=%v) on %s", p.Kind, p.OrderAware, arch)
	}
	return suggestionFrom(p, m, m.Net.Probabilities(p.Vector()), b.explain), nil
}

// SuggestBatch runs the models for many profiles in as few network passes
// as possible: profiles sharing a model target are evaluated in one
// ProbabilitiesBatch matrix pass, amortizing per-call overhead. Results are
// positional — sugs[i] and errs[i] describe ps[i] — and bit-identical to
// calling Suggest on each profile, which is what lets the batched server
// answer exactly what the sequential CLI answers. A profile whose (kind,
// orderAware) has no model on arch gets a per-profile error, matching
// Suggest's.
func (b *Brainy) SuggestBatch(ps []*profile.Profile, arch string) (sugs []Suggestion, errs []error) {
	sugs = make([]Suggestion, len(ps))
	errs = make([]error, len(ps))
	type target struct {
		kind       adt.Kind
		orderAware bool
	}
	groups := make(map[target][]int)
	var order []target // deterministic evaluation order: first appearance
	for i, p := range ps {
		tg := target{p.Kind, p.OrderAware}
		if _, ok := groups[tg]; !ok {
			order = append(order, tg)
		}
		groups[tg] = append(groups[tg], i)
	}
	for _, tg := range order {
		idxs := groups[tg]
		m, ok := b.models.Get(tg.kind, tg.orderAware, arch)
		if !ok {
			err := fmt.Errorf("core: no model for %v (orderAware=%v) on %s", tg.kind, tg.orderAware, arch)
			for _, i := range idxs {
				errs[i] = err
			}
			continue
		}
		xs := make([][]float64, len(idxs))
		for j, i := range idxs {
			xs[j] = ps[i].Vector()
		}
		probsList := m.Net.ProbabilitiesBatch(xs)
		for j, i := range idxs {
			sugs[i] = suggestionFrom(ps[i], m, probsList[j], b.explain)
		}
	}
	return sugs, errs
}

// suggestionFrom assembles the verdict for one profile from its model's
// class distribution — the single shared tail of Suggest and SuggestBatch,
// so the two paths cannot drift apart.
func suggestionFrom(p *profile.Profile, m *training.Model, probs []float64, explain bool) Suggestion {
	best := 0
	for i := 1; i < len(probs); i++ {
		if probs[i] > probs[best] {
			best = i
		}
	}
	kind := m.Candidates[best]
	s := Suggestion{
		Context:    p.Context,
		Original:   p.Kind,
		Suggested:  kind,
		Confidence: probs[best],
		Replace:    kind != p.Kind,
	}
	n := int(p.Stats.MaxLen)
	s.MemOriginal = adt.EstimatedBytes(p.Kind, n, p.Stats.ElemSize)
	s.MemSuggested = adt.EstimatedBytes(kind, n, p.Stats.ElemSize)
	if s.MemOriginal > 0 {
		s.MemDeltaPct = 100 * (float64(s.MemSuggested) - float64(s.MemOriginal)) / float64(s.MemOriginal)
	}
	if explain {
		ex := &Explanation{Probs: make([]KindProb, len(probs))}
		for i, pr := range probs {
			ex.Probs[i] = KindProb{Kind: m.Candidates[i], Prob: pr}
		}
		sort.SliceStable(ex.Probs, func(a, b int) bool { return ex.Probs[a].Prob > ex.Probs[b].Prob })
		s.Explanation = ex
	}
	return s
}

// Report is the prioritized analysis of a whole application run.
type Report struct {
	Arch        string
	Suggestions []Suggestion // sorted by descending cycle share
	Skipped     []string     // contexts without a trained model
}

// Analyze produces a report over all profiled containers of a run. The
// suggestions are sorted by each container's share of the total profiled
// cycles, so developers see the most profitable replacements first — the
// paper's post-processing that "takes relative execution time and calling
// context into consideration".
func (b *Brainy) Analyze(profiles []profile.Profile, arch string) Report {
	rep, _ := AnalyzeContext(context.Background(), b.Suggest, profiles, arch)
	return rep
}

// Suggester produces the verdict for one profile. Brainy.Suggest is the
// canonical implementation; wrappers layer caching or instrumentation on
// top without re-implementing the report logic.
type Suggester func(p *profile.Profile, arch string) (Suggestion, error)

// AnalyzeContext runs the report pipeline over an arbitrary Suggester,
// checking ctx between inferences. On cancellation it returns the partial
// report alongside ctx's error.
func AnalyzeContext(ctx context.Context, suggest Suggester, profiles []profile.Profile, arch string) (Report, error) {
	rep := Report{Arch: arch}
	var total float64
	for i := range profiles {
		total += profiles[i].Cycles
	}
	if total == 0 {
		total = 1
	}
	for i := range profiles {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		p := &profiles[i]
		s, err := suggest(p, arch)
		if err != nil {
			rep.Skipped = append(rep.Skipped, p.Context)
			continue
		}
		s.CyclesPct = p.Cycles / total
		rep.Suggestions = append(rep.Suggestions, s)
	}
	sort.SliceStable(rep.Suggestions, func(i, j int) bool {
		return rep.Suggestions[i].CyclesPct > rep.Suggestions[j].CyclesPct
	})
	return rep, nil
}

// Render formats the report for a terminal.
func (r Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Brainy report (%s): %d container(s) profiled\n", r.Arch, len(r.Suggestions))
	for _, s := range r.Suggestions {
		sb.WriteString("  " + s.String() + "\n")
	}
	if len(r.Skipped) > 0 {
		fmt.Fprintf(&sb, "  (no model for %d container(s): %s)\n", len(r.Skipped), strings.Join(r.Skipped, ", "))
	}
	return sb.String()
}

// Replacements returns only the suggestions that recommend a change.
func (r Report) Replacements() []Suggestion {
	var out []Suggestion
	for _, s := range r.Suggestions {
		if s.Replace {
			out = append(out, s)
		}
	}
	return out
}
