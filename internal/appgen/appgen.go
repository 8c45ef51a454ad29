// Package appgen is the application generator of Section 4.2: it creates
// synthetic applications that exercise one data structure through a
// function-dispatch loop whose every behaviour — operation mix, operand
// values, element size, search skew — is drawn from a seeded random number
// generator. Regenerating an application from its seed reproduces the exact
// operation stream, which is how the two-phase training framework can replay
// Phase-I winners under instrumentation in Phase-II without storing any
// traces (Algorithm 1/2).
package appgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"

	"repro/internal/adt"
	"repro/internal/machine"
	"repro/internal/profile"
)

// Op enumerates the interface functions a synthetic application may invoke,
// the dispatch alphabet of the function-dispatch loop.
type Op int

// Generator operations. Positional and front insertions only appear in
// order-aware sequence applications; the rest are family-neutral.
const (
	OpInsert Op = iota // append / keyed insert
	OpInsertAt
	OpPushFront
	OpErase
	OpEraseFront
	OpFind
	OpIterate
	NumOps
)

var opNames = [NumOps]string{
	"insert", "insert_at", "push_front", "erase", "erase_front", "find", "iterate",
}

// String returns the operation's name.
func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// Config mirrors Table 2: the knobs of the generator's configuration file.
// Every per-application behaviour is then drawn from the seed.
type Config struct {
	TotalInterfCalls int      // constant across generated applications
	DataElemSizes    []uint64 // element-size choices, e.g. {4, 8, 64, 256}
	MaxInsertVal     uint64
	MaxRemoveVal     uint64
	MaxSearchVal     uint64
	MaxIterCount     int
	MaxPrepopulate   int // upper bound on initial population before the loop
}

// DefaultConfig returns the configuration used throughout the evaluation,
// matching the specification example of Table 2.
func DefaultConfig() Config {
	return Config{
		TotalInterfCalls: 1000,
		DataElemSizes:    []uint64{4, 8, 16, 64, 256},
		MaxInsertVal:     65536,
		MaxRemoveVal:     65536,
		MaxSearchVal:     65536,
		MaxIterCount:     65536,
		MaxPrepopulate:   4096,
	}
}

// WriteConfig serializes the configuration as JSON — the "configuration
// file distributed with the data structure library" of the paper's
// install-time vision.
func WriteConfig(w io.Writer, cfg Config) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cfg)
}

// ReadConfig parses a configuration written by WriteConfig and validates it.
func ReadConfig(r io.Reader) (Config, error) {
	var cfg Config
	if err := json.NewDecoder(r).Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("appgen: decoding config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.TotalInterfCalls <= 0 {
		return fmt.Errorf("appgen: TotalInterfCalls must be positive, got %d", c.TotalInterfCalls)
	}
	if len(c.DataElemSizes) == 0 {
		return fmt.Errorf("appgen: DataElemSizes must not be empty")
	}
	if c.MaxInsertVal == 0 || c.MaxSearchVal == 0 {
		return fmt.Errorf("appgen: value ranges must be positive")
	}
	return nil
}

// App is one synthetic application: a seeded specification of a behaviour
// against the abstract data type. The same App can be instantiated with any
// candidate container kind; the operation stream is identical because it is
// derived only from the seed.
type App struct {
	Seed        int64
	Target      adt.ModelTarget // original data structure + order-awareness
	Calls       int
	ElemSize    uint64
	Prepopulate int
	SearchSkew  float64 // 0 = uniform operand draw, 1 = heavily skewed to low values
	Weights     [NumOps]float64
}

// validOps returns the dispatch alphabet for a target family.
func validOps(t adt.ModelTarget) []Op {
	if t.Kind.IsSequence() && t.OrderAware {
		return []Op{OpInsert, OpInsertAt, OpPushFront, OpErase, OpEraseFront, OpFind, OpIterate}
	}
	return []Op{OpInsert, OpErase, OpEraseFront, OpFind, OpIterate}
}

// Generate derives an application from (config, target, seed). Each
// application activates a random *subset* of the interface functions — from
// single-operation specialists up to the full vocabulary — and draws
// exponential (Dirichlet-like) weights for the active ones. Subset sampling
// is what covers the corners of the design space (Section 4.1): without it,
// profiles like "almost pure iteration" would be vanishingly rare in
// training and the model could not classify real applications that live
// there.
func Generate(cfg Config, target adt.ModelTarget, seed int64) App {
	rng := rand.New(rand.NewSource(seed))
	app := App{
		Seed:        seed,
		Target:      target,
		Calls:       cfg.TotalInterfCalls,
		ElemSize:    cfg.DataElemSizes[rng.Intn(len(cfg.DataElemSizes))],
		Prepopulate: 0,
		SearchSkew:  rng.Float64(),
	}
	if cfg.MaxPrepopulate > 0 {
		app.Prepopulate = rng.Intn(cfg.MaxPrepopulate + 1)
	}
	ops := validOps(target)
	var others []Op
	for _, op := range ops {
		if op != OpInsert {
			others = append(others, op)
		}
	}
	// Choose how many non-insert interface functions this app uses.
	k := rng.Intn(len(others) + 1)
	rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	for _, op := range others[:k] {
		app.Weights[op] = rng.ExpFloat64()
	}
	// Insert is always available so the structure can grow, but may be a
	// trace amount so that specialist apps stay specialists.
	app.Weights[OpInsert] = rng.ExpFloat64()
	if rng.Float64() < 0.5 {
		app.Weights[OpInsert] *= 0.05
	}
	if app.Weights[OpInsert] < 0.01 {
		app.Weights[OpInsert] = 0.01
	}
	return app
}

// Result is one instantiation's outcome.
type Result struct {
	Kind    adt.Kind
	Cycles  float64
	Profile profile.Profile
}

// skewedVal draws a value in [0, max) biased toward small values as skew
// approaches 1. Skewed search operands are what make find costs — how many
// elements a search touches — input-dependent, the effect behind Table 4.
func skewedVal(rng *rand.Rand, max uint64, skew float64) uint64 {
	if max == 0 {
		return 0
	}
	u := rng.Float64()
	exp := 1 + 9*skew
	return uint64(float64(max) * math.Pow(u, exp))
}

// Replay drives the application's deterministic operation stream into any
// container — an instrumented one, a plain one, or a Perflint advisor. The
// operand stream depends only on app.Seed, so every container sees the
// same behaviour (Section 4.2's "exactly same behaviour, only a different
// data structure").
func Replay(app *App, cfg Config, ctr adt.Container) {
	replay(app, cfg, ctr, nil)
}

// replay is Replay's loop. When stop is non-nil it is asked after every
// prepopulation insert and every interface call whether to give up; replay
// returns false if it did, and true once the stream has run to its end.
func replay(app *App, cfg Config, ctr adt.Container, stop func() bool) bool {
	rng := rand.New(rand.NewSource(app.Seed + 1)) // dispatch stream

	for i := 0; i < app.Prepopulate; i++ {
		ctr.Insert(skewedVal(rng, cfg.MaxInsertVal, 0))
		if stop != nil && stop() {
			return false
		}
	}

	// Build the cumulative weight table once.
	var cum [NumOps]float64
	total := 0.0
	for op := Op(0); op < NumOps; op++ {
		total += app.Weights[op]
		cum[op] = total
	}

	for i := 0; i < app.Calls; i++ {
		r := rng.Float64() * total
		op := OpInsert
		for op < NumOps-1 && r > cum[op] {
			op++
		}
		switch op {
		case OpInsert:
			ctr.Insert(skewedVal(rng, cfg.MaxInsertVal, 0))
		case OpInsertAt:
			pos := 0
			if n := ctr.Len(); n > 0 {
				pos = rng.Intn(n + 1)
			}
			ctr.InsertAt(pos, skewedVal(rng, cfg.MaxInsertVal, 0))
		case OpPushFront:
			ctr.PushFront(skewedVal(rng, cfg.MaxInsertVal, 0))
		case OpErase:
			ctr.Erase(skewedVal(rng, cfg.MaxRemoveVal, app.SearchSkew))
		case OpEraseFront:
			ctr.EraseFront()
		case OpFind:
			ctr.Find(skewedVal(rng, cfg.MaxSearchVal, app.SearchSkew))
		case OpIterate:
			n := rng.Intn(cfg.MaxIterCount + 1)
			if l := ctr.Len(); n > l {
				n = l
			}
			ctr.Iterate(n)
		}
		if stop != nil && stop() {
			return false
		}
	}
	return true
}

// Run instantiates the application with the given container kind on mach
// and executes the function-dispatch loop under instrumentation, returning
// the cycle count and the container's profile.
func (app *App) Run(cfg Config, kind adt.Kind, mach *machine.Machine) Result {
	res, _ := app.run(cfg, kind, mach, math.Inf(1))
	return res
}

// run is Run under a bound: it abandons the replay between interface calls
// once the cycles the profile has attributed pass bound, and reports
// whether the replay ran to its end. An abandoned result holds the partial
// run's profile.
func (app *App) run(cfg Config, kind adt.Kind, mach *machine.Machine, bound float64) (Result, bool) {
	ctr := profile.NewContainer(kind, mach, app.ElemSize,
		fmt.Sprintf("appgen/seed=%d", app.Seed), app.Target.OrderAware)
	complete := replay(app, cfg, ctr, func() bool { return ctr.Cycles() > bound })
	p := ctr.Snapshot()
	return Result{Kind: kind, Cycles: p.Cycles, Profile: p}, complete
}

// RunFresh instantiates the application with the given container kind on a
// machine of configuration arch in the state machine.New builds, and runs
// it as Run does. The machine is a reset one from a per-configuration pool,
// so a worker that runs many applications reuses one machine instead of
// allocating the simulated caches for every run.
func (app *App) RunFresh(cfg Config, kind adt.Kind, arch machine.Config) Result {
	res, _ := app.runFresh(cfg, kind, arch, math.Inf(1))
	return res
}

// runFresh is RunFresh under run's bound.
func (app *App) runFresh(cfg Config, kind adt.Kind, arch machine.Config, bound float64) (Result, bool) {
	pool := machinePool(arch)
	m := pool.Get().(*machine.Machine)
	defer pool.Put(m)
	m.Reset()
	return app.run(cfg, kind, m, bound)
}

// RunAll instantiates the application with every candidate kind (the
// original first), each through RunFresh, and returns the per-kind results
// in candidate order.
func (app *App) RunAll(cfg Config, arch machine.Config) []Result {
	kinds := adt.CandidatesWithOriginal(app.Target.Kind, app.Target.OrderAware)
	out := make([]Result, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, app.RunFresh(cfg, k, arch))
	}
	return out
}

// Label decides what Best(app.RunAll(cfg, arch), margin) decides while
// simulating only what that decision reads. The original kind runs to its
// end; every other candidate, in RunAll's order, runs under a bound of
// best-so-far × (1+margin) and is abandoned once its attributed cycles
// pass it. Attributed cycles only grow and the bound only falls, so an
// abandoned candidate ends above the final winner's bound: it could
// neither have won nor have made the label indecisive. Best then picks
// from the candidates that ran to their end.
//
// The margin must not be negative, or the bound would fall below the
// fastest run and could abandon the winner. orig is the original kind's
// full result, the instrumented run Phase II and validation read. hw sums
// the counters of everything simulated, abandoned runs included.
func (app *App) Label(cfg Config, arch machine.Config, margin float64) (best adt.Kind, decisive bool, orig Result, hw machine.Counters) {
	kinds := adt.CandidatesWithOriginal(app.Target.Kind, app.Target.OrderAware)
	orig = app.RunFresh(cfg, kinds[0], arch)
	hw = orig.Profile.HW
	ran := []Result{orig}
	fastest := orig.Cycles
	for _, k := range kinds[1:] {
		res, complete := app.runFresh(cfg, k, arch, fastest*(1+margin))
		hw = hw.Add(res.Profile.HW)
		if !complete {
			continue
		}
		ran = append(ran, res)
		fastest = min(fastest, res.Cycles)
	}
	i, decisive := Best(ran, margin)
	return ran[i].Kind, decisive, orig, hw
}

// machinePools holds the idle machines of each configuration RunFresh has
// used. A sync.Pool keeps about one per running goroutine, hands a machine
// to one goroutine at a time, and lets the garbage collector take the idle
// ones, so a process that stops simulating holds none.
var (
	machinePoolsMu sync.Mutex
	machinePools   = map[machine.Config]*sync.Pool{}
)

func machinePool(arch machine.Config) *sync.Pool {
	machinePoolsMu.Lock()
	defer machinePoolsMu.Unlock()
	p := machinePools[arch]
	if p == nil {
		p = &sync.Pool{New: func() any { return machine.New(arch) }}
		machinePools[arch] = p
	}
	return p
}

// Best returns the index of the fastest result and whether it beats every
// other candidate by at least margin (the paper's 5% threshold). When the
// margin is not met the application is discarded from training.
func Best(results []Result, margin float64) (int, bool) {
	if len(results) == 0 {
		return -1, false
	}
	best := 0
	for i := 1; i < len(results); i++ {
		if results[i].Cycles < results[best].Cycles {
			best = i
		}
	}
	decisive := true
	for i := range results {
		if i == best {
			continue
		}
		if results[best].Cycles*(1+margin) > results[i].Cycles {
			decisive = false
			break
		}
	}
	return best, decisive
}
