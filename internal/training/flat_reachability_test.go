package training

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/appgen"
	"repro/internal/machine"
)

// TestFlatLabelsReachableMissHeavy pins Phase-I reachability of the flat
// backends: under miss-heavy appgen regimes on Core2, at least one seed
// application must label flat_btree_set for the order-aware set target and
// at least one must label flat_hash_set for the order-oblivious one. If
// either stops being the decisive winner anywhere in these corpora, the
// trained models can never learn to suggest it and the drift rules point at
// a kind the selector contradicts.
//
// The two regimes stress what each layout is for. The B+-tree case uses
// large elements, where the pointer-based nodes drag whole payloads through
// the cache on every visited node while the SoA tree searches packed keys.
// The hash case uses a high interface-call budget so find traffic outweighs
// prepopulation: the open-addressed table pays for its rehash copies during
// the insert phase and earns them back threefold on every probe once the
// working set spills the L1.
func TestFlatLabelsReachableMissHeavy(t *testing.T) {
	if testing.Short() {
		t.Skip("miss-heavy corpus sweep is slow")
	}
	arch := machine.Core2()
	cases := []struct {
		name string
		cfg  appgen.Config
		tgt  adt.ModelTarget
		want adt.Kind
	}{
		{
			name: "payload-heavy ordered",
			// Working sets up to 8192 x 256-byte elements (~2 MB plus
			// per-node overheads) spill Core2's L1 on every probe; the cap
			// stays moderate because the corpus also instantiates the
			// O(n)-insert candidates (sorted_vec), whose prepopulation cost
			// scales quadratically.
			cfg: appgen.Config{
				TotalInterfCalls: 60,
				DataElemSizes:    []uint64{256},
				MaxInsertVal:     1 << 20,
				MaxRemoveVal:     1 << 20,
				MaxSearchVal:     1 << 20,
				MaxIterCount:     64,
				MaxPrepopulate:   8192,
			},
			tgt:  adt.ModelTarget{Kind: adt.KindSet, OrderAware: true},
			want: adt.KindFlatBTreeSet,
		},
		{
			name: "probe-heavy oblivious",
			// Small keys, thousands of lookups against a prepopulated
			// working set that exceeds the L1: the find-specialist seeds in
			// this corpus are where point-probe cost dominates everything.
			cfg: appgen.Config{
				TotalInterfCalls: 6000,
				DataElemSizes:    []uint64{8},
				MaxInsertVal:     1 << 20,
				MaxRemoveVal:     1 << 20,
				MaxSearchVal:     1 << 20,
				MaxIterCount:     64,
				MaxPrepopulate:   8192,
			},
			tgt:  adt.ModelTarget{Kind: adt.KindSet, OrderAware: false},
			want: adt.KindFlatHashSet,
		},
	}
	const maxSeeds = 120
	for _, tc := range cases {
		found := int64(-1)
		for seed := int64(1); seed <= maxSeeds && found < 0; seed++ {
			app := appgen.Generate(tc.cfg, tc.tgt, seed)
			best, decisive, _, _ := app.Label(tc.cfg, arch, 0.05)
			if decisive && best == tc.want {
				found = seed
			}
		}
		if found < 0 {
			t.Errorf("%s: no seed in [1,%d] labels %v", tc.name, maxSeeds, tc.want)
		} else {
			t.Logf("%s: seed %d labels %v", tc.name, found, tc.want)
		}
	}
}
