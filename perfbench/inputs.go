package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/adt"
	"repro/internal/appgen"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/workloads/phases"
)

// arch is the microarchitecture every request names; the served registry
// holds the Core2 models only.
const arch = "Core2"

// Input sizes. They are fixed so that every seed stresses the same layers
// the same amount; the seed only changes which applications and instances
// are drawn.
const (
	// hotTraces one-profile advise traces make the hot-mixed advise set:
	// a few hundred, well inside the server's 4096-entry inference cache.
	hotTraces = 256
	// hotSkew is the zipf theta the hot-mixed advise traces are drawn with.
	hotSkew = 0.99
	// hotInstances build-then-query instances make one pass of the
	// hot-mixed ingest stream.
	hotInstances = 256
	// windowEvery is the snapshot-window size, in interface calls, of the
	// ingest instances; windowsPerPost windows of one instance go in one
	// /v1/profiles body.
	windowEvery    = 64
	windowsPerPost = 4
	// coldTraces traces of coldProfiles profiles make the cold-advise pool.
	// The pool holds 16384 distinct profiles, four times the cache, so a
	// profile is evicted long before it recurs.
	coldTraces   = 1024
	coldProfiles = 16
	// baseApps appgen applications are simulated per workload; cold-advise
	// profiles are these measurements with per-profile cycle jitter.
	baseApps = 256
	// appCalls is the appgen interface-call budget of every base application.
	appCalls = 120
)

// adviseTrace is one /v1/advise request: the trace and its pre-rendered
// JSON-lines body.
type adviseTrace struct {
	profiles []profile.Profile
	body     []byte
}

func newAdviseTrace(ps []profile.Profile) adviseTrace {
	var buf bytes.Buffer
	if err := profile.WriteTrace(&buf, ps); err != nil {
		panic(err) // profiles built in process always encode
	}
	return adviseTrace{profiles: ps, body: buf.Bytes()}
}

// appConfig is the appgen configuration of the base applications, scaled
// down the way brainy-train scales it for a small -calls budget.
func appConfig() appgen.Config {
	cfg := appgen.DefaultConfig()
	cfg.TotalInterfCalls = appCalls
	cfg.MaxPrepopulate = 4 * appCalls
	cfg.MaxIterCount = 4 * appCalls
	return cfg
}

// appProfiles simulates n appgen applications, cycling through the Core2
// model targets so every container kind is represented, and returns each
// application's profile on its original container.
func appProfiles(seed int64, n int, prefix string) []profile.Profile {
	cfg := appConfig()
	targets := adt.Targets()
	out := make([]profile.Profile, n)
	for i := range out {
		tgt := targets[i%len(targets)]
		app := appgen.Generate(cfg, tgt, seed<<20+int64(i))
		p := app.Run(cfg, tgt.Kind, machine.New(machine.Core2())).Profile
		p.Context = fmt.Sprintf("%s/%03d", prefix, i)
		out[i] = p
	}
	return out
}

// hotAdviseTraces returns the hot-mixed advise set: one application per
// trace.
func hotAdviseTraces(seed int64) []adviseTrace {
	ps := appProfiles(seed, hotTraces, "perfbench/hot")
	out := make([]adviseTrace, len(ps))
	for i := range ps {
		out[i] = newAdviseTrace(ps[i : i+1])
	}
	return out
}

// coldAdviseTraces returns the cold-advise pool. Each profile is a base
// application's measurement with its cycle count jittered by a
// profile-unique amount (at most 16 parts per million): the verdict is
// the base application's, but the feature vector, and so the cache key,
// belongs to that profile alone.
func coldAdviseTraces(seed int64) []adviseTrace {
	base := appProfiles(seed, baseApps, "perfbench/cold-base")
	rng := rand.New(rand.NewSource(seed))
	out := make([]adviseTrace, coldTraces)
	for t := range out {
		ps := make([]profile.Profile, coldProfiles)
		for j := range ps {
			p := base[rng.Intn(len(base))]
			p.Context = fmt.Sprintf("perfbench/cold/%04d/%02d", t, j)
			p.Cycles *= 1 + float64(t*coldProfiles+j+1)*1e-9
			ps[j] = p
		}
		out[t] = newAdviseTrace(ps)
	}
	return out
}

// windowCollector keeps every window a container emits, in order.
type windowCollector struct{ windows []profile.WindowRecord }

func (c *windowCollector) EmitWindow(w *profile.WindowRecord) { c.windows = append(c.windows, *w) }

// phaseInstances simulates n build-then-query container instances (the
// internal/workloads/phases shape) under snapshot windows. Instance i
// builds a working set of its own size, so no two instances emit the same
// windows.
func phaseInstances(seed int64, n int) [][]profile.WindowRecord {
	rng := rand.New(rand.NewSource(seed))
	sizes := rng.Perm(n)
	out := make([][]profile.WindowRecord, n)
	for i := range out {
		var sink windowCollector
		reg := profile.NewRegistry(machine.New(machine.Core2()))
		reg.EnableWindows(windowEvery, &sink)
		c := reg.NewContainer(phases.Original, 8, phases.Context, false)
		phases.Drive(c, phases.Config{Keys: 128 + sizes[i]})
		reg.FlushWindows()
		out[i] = sink.windows
	}
	return out
}

// ingestPool is one pass of the hot-mixed ingest stream: every instance's
// windows and their pre-rendered /v1/profiles bodies, windowsPerPost
// windows of one instance per body.
type ingestPool struct {
	windows [][]profile.WindowRecord // [instance] windows, pass-0 identity
	bodies  [][][]byte               // [instance][post] pass-0 bodies
}

// passMarker is the pass field of every ingest context; later passes
// rewrite it in the pre-rendered bodies instead of encoding them again.
const passMarker = "/p0000/"

func instanceContext(inst, pass int) string {
	return fmt.Sprintf("perfbench/phases/p%04d/i%03d", pass, inst)
}

func newIngestPool(seed int64) ingestPool {
	pool := ingestPool{windows: phaseInstances(seed, hotInstances)}
	pool.bodies = make([][][]byte, len(pool.windows))
	for i, ws := range pool.windows {
		for lo := 0; lo < len(ws); lo += windowsPerPost {
			chunk := stamp(ws[lo:min(lo+windowsPerPost, len(ws))], i, 0)
			var buf bytes.Buffer
			if err := profile.WriteWindows(&buf, chunk); err != nil {
				panic(err) // windows built in process always encode
			}
			pool.bodies[i] = append(pool.bodies[i], buf.Bytes())
		}
	}
	return pool
}

// stamp returns a copy of windows carrying the identity of instance inst in
// the given pass.
func stamp(windows []profile.WindowRecord, inst, pass int) []profile.WindowRecord {
	ws := make([]profile.WindowRecord, len(windows))
	copy(ws, windows)
	for i := range ws {
		ws[i].Context = instanceContext(inst, pass)
		ws[i].Instance = 0
	}
	return ws
}

// ingestRef names one post of the stream: an instance of the pool, the
// pass it was sent in, and the post's position in the instance's timeline.
type ingestRef struct{ inst, pass, post int }

func (p ingestPool) body(r ingestRef) []byte {
	b := p.bodies[r.inst][r.post]
	if r.pass == 0 {
		return b
	}
	return bytes.ReplaceAll(b, []byte(passMarker), []byte(fmt.Sprintf("/p%04d/", r.pass)))
}

// postWindows returns the windows a post carried, as the server saw them.
func (p ingestPool) postWindows(r ingestRef) []profile.WindowRecord {
	ws := p.windows[r.inst]
	lo := r.post * windowsPerPost
	return stamp(ws[lo:min(lo+windowsPerPost, len(ws))], r.inst, r.pass)
}

// ingestStream is one connection's ordered ingest traffic. Each connection
// owns every instance whose pool index is congruent to its number and keeps
// `active` of them interleaved, so the server holds many live timelines at
// once while each instance's windows still arrive in order over this one
// connection. When the pool is exhausted the stream starts over under fresh
// instance keys (the pass number is part of the context), so no timeline
// ever sees its sequence numbers go backwards.
type ingestStream struct {
	pool  ingestPool
	conns int
	next  int // next pool index, counted across passes, to start
	slots []ingestRef
	round int
}

func newIngestStream(pool ingestPool, conn, conns, active int) *ingestStream {
	s := &ingestStream{pool: pool, conns: conns, next: conn}
	for i := 0; i < active; i++ {
		s.slots = append(s.slots, s.start())
	}
	return s
}

func (s *ingestStream) start() ingestRef {
	n := len(s.pool.windows)
	r := ingestRef{inst: s.next % n, pass: s.next / n}
	s.next += s.conns
	return r
}

// nextPost returns the next post, round-robin over the active instances.
func (s *ingestStream) nextPost() ingestRef {
	sl := &s.slots[s.round%len(s.slots)]
	s.round++
	r := *sl
	sl.post++
	if sl.post == len(s.pool.bodies[sl.inst]) {
		*sl = s.start()
	}
	return r
}

// hotPicker returns connection c's zipf-hot draw of hot-mixed advise trace
// indices.
func hotPicker(seed int64, c int) func() int {
	z, err := loadgen.NewZipf(hotTraces, hotSkew)
	if err != nil {
		panic(err) // constant, valid parameters
	}
	rng := rand.New(rand.NewSource(seed*131 + int64(c)))
	return func() int { return z.Next(rng) }
}
