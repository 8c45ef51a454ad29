package training

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adt"
	"repro/internal/appgen"
	"repro/internal/machine"
)

// The golden corpus pins label equivalence across simulator rewrites: for a
// fixed 200-seed appgen corpus per (target, architecture), the Phase-I label
// of every seed and every non-cycle performance counter must stay
// bit-identical, and cycle totals may drift only within floatDriftBound
// (rewrites may change float64 accumulation order or move to fixed point,
// but never by enough to flip a 5% label margin).
//
// Regenerate with:
//
//	go test ./internal/training -run TestGoldenLabelEquivalence -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the simulator golden files in testdata/")

const (
	goldenSeeds = 200
	// floatDriftBound is the allowed relative drift in per-seed cycle
	// totals. Reordered or fixed-point accumulation of the same event
	// stream stays many orders of magnitude inside this; a modeling change
	// does not.
	floatDriftBound = 1e-6
)

type goldenSeed struct {
	Seed     int64   `json:"seed"`
	Best     string  `json:"best"`
	Decisive bool    `json:"decisive"`
	Counters string  `json:"counters"` // sha256 over all candidates' non-cycle counters
	Cycles   float64 `json:"cycles"`   // summed simulated cycles across candidates
}

type goldenFile struct {
	Arch   string       `json:"arch"`
	Target string       `json:"target"`
	Calls  int          `json:"calls"`
	Seeds  []goldenSeed `json:"seeds"`
}

// goldenOptions is the fixed corpus configuration. Small call counts keep
// the 200-seed x all-candidates sweep fast while still exercising every
// event type (straddling accesses, TLB walks, mispredicts, allocs).
func goldenOptions(arch machine.Config) Options {
	opt := DefaultOptions(arch)
	opt.AppCfg.TotalInterfCalls = 60
	opt.AppCfg.MaxPrepopulate = 240
	opt.AppCfg.MaxIterCount = 240
	opt.MaxSeeds = goldenSeeds
	opt.SeedBase = 1
	return opt
}

func goldenTargets() []adt.ModelTarget {
	return []adt.ModelTarget{
		{Kind: adt.KindVector, OrderAware: false}, // widest candidate space
		{Kind: adt.KindSet, OrderAware: true},
	}
}

// hashCounters folds every non-cycle counter field of every candidate run
// into one digest. Cycles is deliberately excluded: it is the one field
// allowed to drift (within floatDriftBound) across accumulation rewrites.
func hashCounters(results []appgen.Result) string {
	h := sha256.New()
	for _, r := range results {
		c := r.Profile.HW
		fmt.Fprintf(h, "%d|%d %d %d %d %d %d %d %d %d %d %d %d %d\n",
			r.Kind,
			c.Reads, c.Writes, c.L1Accesses, c.L1Misses,
			c.L2Accesses, c.L2Misses, c.Branches, c.Mispredicts,
			c.TLBAccesses, c.TLBMisses, c.Allocs, c.Frees, c.BytesAlloced)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenPath(arch string, tgt adt.ModelTarget) string {
	mode := "oblivious"
	if tgt.OrderAware {
		mode = "aware"
	}
	return filepath.Join("testdata", fmt.Sprintf("golden_%s_%v_%s.json", arch, tgt.Kind, mode))
}

// computeGolden runs the fixed corpus: every seed, every candidate, each
// candidate on a reset pooled machine through RunAll — exactly the per-seed
// work of Algorithm 1.
func computeGolden(tgt adt.ModelTarget, opt Options) goldenFile {
	gf := goldenFile{
		Arch:   opt.Arch.Name,
		Target: fmt.Sprintf("%v/aware=%v", tgt.Kind, tgt.OrderAware),
		Calls:  opt.AppCfg.TotalInterfCalls,
	}
	for i := 0; i < goldenSeeds; i++ {
		seed := opt.SeedBase + int64(i)
		app := appgen.Generate(opt.AppCfg, tgt, seed)
		results := app.RunAll(opt.AppCfg, opt.Arch)
		best, decisive := appgen.Best(results, opt.Margin)
		var cycles float64
		for _, r := range results {
			cycles += r.Cycles
		}
		gf.Seeds = append(gf.Seeds, goldenSeed{
			Seed:     seed,
			Best:     fmt.Sprintf("%v", results[best].Kind),
			Decisive: decisive,
			Counters: hashCounters(results),
			Cycles:   cycles,
		})
	}
	return gf
}

func TestGoldenLabelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus sweep skipped in -short mode")
	}
	for _, arch := range []machine.Config{machine.Core2(), machine.Atom()} {
		for _, tgt := range goldenTargets() {
			arch, tgt := arch, tgt
			t.Run(fmt.Sprintf("%s/%v/aware=%v", arch.Name, tgt.Kind, tgt.OrderAware), func(t *testing.T) {
				t.Parallel()
				opt := goldenOptions(arch)
				got := computeGolden(tgt, opt)
				path := goldenPath(arch.Name, tgt)
				if *updateGolden {
					data, err := json.MarshalIndent(got, "", " ")
					if err != nil {
						t.Fatal(err)
					}
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("wrote %s", path)
					return
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update-golden): %v", err)
				}
				var want goldenFile
				if err := json.Unmarshal(data, &want); err != nil {
					t.Fatalf("corrupt golden file %s: %v", path, err)
				}
				if len(want.Seeds) != len(got.Seeds) {
					t.Fatalf("golden has %d seeds, corpus produced %d", len(want.Seeds), len(got.Seeds))
				}
				for i, w := range want.Seeds {
					g := got.Seeds[i]
					if g.Seed != w.Seed {
						t.Fatalf("seed order drift at %d: %d vs %d", i, g.Seed, w.Seed)
					}
					if g.Best != w.Best || g.Decisive != w.Decisive {
						t.Errorf("seed %d: label changed: got (%s, decisive=%v), want (%s, decisive=%v)",
							w.Seed, g.Best, g.Decisive, w.Best, w.Decisive)
					}
					if g.Counters != w.Counters {
						t.Errorf("seed %d: non-cycle counters changed (hash %s != %s)",
							w.Seed, g.Counters[:12], w.Counters[:12])
					}
					if drift := math.Abs(g.Cycles-w.Cycles) / w.Cycles; drift > floatDriftBound {
						t.Errorf("seed %d: cycle total drift %.3g exceeds %.0e (got %f, want %f)",
							w.Seed, drift, floatDriftBound, g.Cycles, w.Cycles)
					}
				}
			})
		}
	}
}

// TestPhase1MatchesGoldenCorpus ties the streaming pipeline to the golden
// brute-force labels: Phase1 over the same seed range must return exactly
// the first PerTargetApps decisive (seed, best) pairs in seed order.
func TestPhase1MatchesGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus sweep skipped in -short mode")
	}
	arch := machine.Core2()
	tgt := goldenTargets()[0]
	opt := goldenOptions(arch)
	opt.PerTargetApps = 20
	opt.Workers = 4

	var want []SeedLabel
	for i := 0; i < goldenSeeds && len(want) < opt.PerTargetApps; i++ {
		seed := opt.SeedBase + int64(i)
		app := appgen.Generate(opt.AppCfg, tgt, seed)
		results := app.RunAll(opt.AppCfg, opt.Arch)
		best, decisive := appgen.Best(results, opt.Margin)
		if decisive {
			want = append(want, SeedLabel{Seed: seed, Best: results[best].Kind})
		}
	}

	got, err := Phase1(context.Background(), tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Phase1 returned %d labels, brute force %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label %d: Phase1 %+v != brute force %+v", i, got[i], want[i])
		}
	}
}
