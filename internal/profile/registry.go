package profile

import (
	"fmt"
	"sort"

	"repro/internal/adt"
	"repro/internal/machine"
)

// Registry tracks every instrumented container an application constructs,
// keyed by calling context — the paper's context-sensitive trace
// collection. Construction sites that allocate many containers (one per
// request, one per group, ...) share a context, and their profiles merge
// into one record so the report speaks about source locations, not
// individual heap objects.
type Registry struct {
	mach       *machine.Machine
	containers map[string][]*Container
	order      []string // first-construction order of contexts

	// Windowing, when enabled, applies to every container constructed
	// afterwards; each instance gets its per-context construction ordinal
	// so timelines stay distinguishable.
	winEvery int
	winSink  WindowSink
}

// NewRegistry builds a registry for one machine.
func NewRegistry(m *machine.Machine) *Registry {
	return &Registry{mach: m, containers: map[string][]*Container{}}
}

// NewContainer constructs and registers an instrumented container at the
// given calling context.
func (r *Registry) NewContainer(kind adt.Kind, elemSize uint64, context string, orderAware bool) *Container {
	c := NewContainer(kind, r.mach, elemSize, context, orderAware)
	if _, seen := r.containers[context]; !seen {
		r.order = append(r.order, context)
	}
	if r.winEvery > 0 {
		c.EnableWindows(r.winEvery, len(r.containers[context]), r.winSink)
	}
	r.containers[context] = append(r.containers[context], c)
	return c
}

// EnableWindows turns on snapshot windows for every container the registry
// constructs from now on: each instance emits a WindowRecord to sink every
// `every` interface invocations. Call before constructing containers;
// already-registered instances are unaffected.
func (r *Registry) EnableWindows(every int, sink WindowSink) {
	if every < 1 {
		panic(fmt.Sprintf("profile: window size %d < 1", every))
	}
	if sink == nil {
		panic("profile: EnableWindows with nil sink")
	}
	r.winEvery = every
	r.winSink = sink
}

// FlushWindows closes every container's partial window, in construction
// order, so end-of-run timelines include their tails.
func (r *Registry) FlushWindows() {
	for _, ctx := range r.order {
		for _, c := range r.containers[ctx] {
			c.FlushWindow()
		}
	}
}

// Contexts returns the construction sites in first-construction order.
func (r *Registry) Contexts() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Snapshot merges every container registered at one context into a single
// profile: software features and hardware counters add up, and cycles
// accumulate across instances. It returns an error for unknown contexts.
func (r *Registry) Snapshot(context string) (Profile, error) {
	cs := r.containers[context]
	if len(cs) == 0 {
		return Profile{}, fmt.Errorf("profile: no containers registered at %q", context)
	}
	merged := cs[0].Snapshot()
	for _, c := range cs[1:] {
		p := c.Snapshot()
		merged.Stats.Add(p.Stats)
		merged.Cycles += p.Cycles
		merged.HW = merged.HW.Add(p.HW)
	}
	return merged, nil
}

// Snapshots returns one merged profile per context, sorted by descending
// attributed cycles — ready to feed to Brainy's Analyze.
func (r *Registry) Snapshots() []Profile {
	out := make([]Profile, 0, len(r.order))
	for _, ctx := range r.order {
		p, err := r.Snapshot(ctx)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycles > out[j].Cycles })
	return out
}

// Instances reports how many containers were constructed at a context.
func (r *Registry) Instances(context string) int { return len(r.containers[context]) }
