package appgen

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/machine"
)

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.TotalInterfCalls = 200
	cfg.MaxPrepopulate = 256
	cfg.MaxIterCount = 512
	return cfg
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.TotalInterfCalls = 0
	if bad.Validate() == nil {
		t.Fatal("zero calls accepted")
	}
	bad = cfg
	bad.DataElemSizes = nil
	if bad.Validate() == nil {
		t.Fatal("empty elem sizes accepted")
	}
	bad = cfg
	bad.MaxInsertVal = 0
	if bad.Validate() == nil {
		t.Fatal("zero insert range accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallCfg()
	tgt := adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}
	a := Generate(cfg, tgt, 123)
	b := Generate(cfg, tgt, 123)
	if a != b {
		t.Fatalf("same seed produced different apps:\n%+v\n%+v", a, b)
	}
	c := Generate(cfg, tgt, 124)
	if a == c {
		t.Fatal("different seeds produced identical apps")
	}
}

func TestGenerateRespectsOrderAwareness(t *testing.T) {
	cfg := smallCfg()
	found := false
	for seed := int64(0); seed < 50; seed++ {
		app := Generate(cfg, adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}, seed)
		if app.Weights[OpInsertAt] != 0 || app.Weights[OpPushFront] != 0 {
			t.Fatalf("seed %d: order-oblivious app uses positional ops: %+v", seed, app.Weights)
		}
		aware := Generate(cfg, adt.ModelTarget{Kind: adt.KindVector, OrderAware: true}, seed)
		if aware.Weights[OpInsertAt] > 0 || aware.Weights[OpPushFront] > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no order-aware app ever used positional ops across 50 seeds")
	}
}

func TestInsertWeightFloor(t *testing.T) {
	cfg := smallCfg()
	for seed := int64(0); seed < 100; seed++ {
		app := Generate(cfg, adt.ModelTarget{Kind: adt.KindSet, OrderAware: false}, seed)
		if app.Weights[OpInsert] < 0.01 {
			t.Fatalf("seed %d: insert weight %f below floor", seed, app.Weights[OpInsert])
		}
	}
}

func TestSpecialistAppsExist(t *testing.T) {
	// Subset sampling must produce single-operation specialists: apps whose
	// only meaningful traffic is iteration, and apps that only insert.
	cfg := smallCfg()
	tgt := adt.ModelTarget{Kind: adt.KindList, OrderAware: true}
	iterOnly, insertOnly := false, false
	for seed := int64(0); seed < 300; seed++ {
		app := Generate(cfg, tgt, seed)
		active := 0
		for op := Op(0); op < NumOps; op++ {
			if op != OpInsert && app.Weights[op] > 0 {
				active++
			}
		}
		if active == 1 && app.Weights[OpIterate] > 0 && app.Weights[OpInsert] < app.Weights[OpIterate]/10 {
			iterOnly = true
		}
		if active == 0 {
			insertOnly = true
		}
	}
	if !iterOnly {
		t.Error("no iterate-specialist app in 300 seeds")
	}
	if !insertOnly {
		t.Error("no insert-only app in 300 seeds")
	}
}

func TestRunDeterministicReplay(t *testing.T) {
	cfg := smallCfg()
	app := Generate(cfg, adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}, 7)
	r1 := app.Run(cfg, adt.KindVector, machine.New(machine.Core2()))
	r2 := app.Run(cfg, adt.KindVector, machine.New(machine.Core2()))
	if r1.Cycles != r2.Cycles {
		t.Fatalf("replay diverged: %f vs %f", r1.Cycles, r2.Cycles)
	}
	if r1.Profile.Stats != r2.Profile.Stats {
		t.Fatal("replayed stats diverged")
	}
}

func TestSameStreamAcrossKinds(t *testing.T) {
	// Different kinds must see the same interface-call stream: total calls
	// equal across instantiations of one app.
	cfg := smallCfg()
	app := Generate(cfg, adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}, 21)
	results := app.RunAll(cfg, machine.Core2())
	if want := 1 + len(adt.Candidates(adt.KindVector, false)); len(results) != want {
		t.Fatalf("got %d results, want %d (vector + its order-oblivious candidates)", len(results), want)
	}
	want := results[0].Profile.Stats.TotalCalls()
	for _, r := range results[1:] {
		if got := r.Profile.Stats.TotalCalls(); got != want {
			t.Fatalf("%v saw %d calls, original saw %d", r.Kind, got, want)
		}
	}
	if results[0].Kind != adt.KindVector {
		t.Fatalf("original not first: %v", results[0].Kind)
	}
}

func TestBestMarginRule(t *testing.T) {
	rs := []Result{{Kind: 0, Cycles: 100}, {Kind: 1, Cycles: 104}, {Kind: 2, Cycles: 200}}
	best, decisive := Best(rs, 0.05)
	if best != 0 {
		t.Fatalf("best = %d", best)
	}
	if decisive {
		t.Fatal("104 is within 5% of 100; must be indecisive")
	}
	rs[1].Cycles = 106
	if _, decisive = Best(rs, 0.05); !decisive {
		t.Fatal("106 vs 100 must be decisive at 5%")
	}
	if _, d := Best(nil, 0.05); d {
		t.Fatal("empty results decisive")
	}
}

func TestBehaviorDiversity(t *testing.T) {
	// Across many seeds, different data structures must win — otherwise the
	// training set can never cover the design space.
	cfg := smallCfg()
	winners := map[adt.Kind]int{}
	for seed := int64(0); seed < 40; seed++ {
		app := Generate(cfg, adt.ModelTarget{Kind: adt.KindVector, OrderAware: false}, seed)
		rs := app.RunAll(cfg, machine.Core2())
		best, _ := Best(rs, 0)
		winners[rs[best].Kind]++
	}
	if len(winners) < 2 {
		t.Fatalf("only one winner kind across 40 apps: %v", winners)
	}
}

func TestSkewedValStaysInRangeAndSkews(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sumUniform, sumSkewed float64
	const n = 5000
	for i := 0; i < n; i++ {
		u := skewedVal(rng, 1000, 0)
		s := skewedVal(rng, 1000, 1)
		if u >= 1000 || s >= 1000 {
			t.Fatalf("value out of range: %d / %d", u, s)
		}
		sumUniform += float64(u)
		sumSkewed += float64(s)
	}
	if sumSkewed >= sumUniform/2 {
		t.Fatalf("skew ineffective: skewed mean %f vs uniform mean %f", sumSkewed/n, sumUniform/n)
	}
	if skewedVal(rng, 0, 0.5) != 0 {
		t.Fatal("zero range must yield zero")
	}
}

func TestOpString(t *testing.T) {
	if OpInsert.String() != "insert" || OpIterate.String() != "iterate" {
		t.Fatal("op names wrong")
	}
	if Op(99).String() == "" {
		t.Fatal("out-of-range op name empty")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalInterfCalls = 777
	var buf bytes.Buffer
	if err := WriteConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalInterfCalls != 777 || len(got.DataElemSizes) != len(cfg.DataElemSizes) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestReadConfigRejectsInvalid(t *testing.T) {
	if _, err := ReadConfig(strings.NewReader("{broken")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadConfig(strings.NewReader(`{"TotalInterfCalls":0}`)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestRunAllReusesMachines bounds what RunAll allocates once warm: the
// candidates' containers and results, but no simulated machine, whose Core2
// caches alone take more than 1.5 MiB.
func TestRunAllReusesMachines(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled machines at random")
	}
	cfg := DefaultConfig()
	cfg.TotalInterfCalls = 100
	cfg.MaxPrepopulate = 400
	cfg.MaxIterCount = 400
	app := Generate(cfg, adt.ModelTarget{Kind: adt.KindVector}, 1)
	arch := machine.Core2()
	app.RunAll(cfg, arch)
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		app.RunAll(cfg, arch)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 256<<10 {
		t.Fatalf("RunAll allocated %d KiB per call, want under 256 KiB", per>>10)
	}
}

// TestRunFreshMatchesNewMachine checks that a pooled machine, used by other
// runs in between, gives the result a machine fresh from New gives.
func TestRunFreshMatchesNewMachine(t *testing.T) {
	cfg := smallCfg()
	for _, arch := range []machine.Config{machine.Core2(), machine.Atom()} {
		for seed := int64(1); seed <= 5; seed++ {
			app := Generate(cfg, adt.ModelTarget{Kind: adt.KindSet}, seed)
			for _, k := range adt.CandidatesWithOriginal(adt.KindSet, false) {
				want := app.Run(cfg, k, machine.New(arch))
				if got := app.RunFresh(cfg, k, arch); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d %v: pooled run %+v, fresh machine %+v", arch.Name, seed, k, got, want)
				}
			}
		}
	}
}

// TestRunAllConcurrent runs applications from several goroutines at once,
// so pooled machines pass between them, and checks every result against a
// sequential run.
func TestRunAllConcurrent(t *testing.T) {
	cfg := smallCfg()
	arch := machine.Core2()
	apps := make([]App, 8)
	want := make([][]Result, len(apps))
	for i := range apps {
		apps[i] = Generate(cfg, adt.ModelTarget{Kind: adt.KindMap}, int64(i))
		want[i] = apps[i].RunAll(cfg, arch)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range apps {
				app := &apps[(i+g)%len(apps)]
				if got := app.RunAll(cfg, arch); !reflect.DeepEqual(got, want[(i+g)%len(apps)]) {
					t.Errorf("goroutine %d, seed %d: concurrent RunAll differs from a sequential one", g, app.Seed)
				}
			}
		}(g)
	}
	wg.Wait()
}
