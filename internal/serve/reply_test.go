package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/drift"
)

// encoderBytes is what writeJSON sends for v, or ok false when encoding/json
// refuses v.
func encoderBytes(v any) ([]byte, bool) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// fuzzReplies builds one reply of each kind from the fuzzer's values; the
// bits of shape pick nil, empty or filled slices and a present or absent
// explanation, so every omitempty and null case is reached.
func fuzzReplies(s1, s2 string, f1, f2 float64, n uint8, shape uint8) (AdviseResponse, ProfilesResponse) {
	k1, k2 := adt.Kind(int(n)%int(adt.NumKinds)), adt.Kind(int(n)-100)
	var sugs []core.Suggestion
	var plan []core.PlanEntry
	var skipped []string
	var events []drift.Event
	switch shape & 3 {
	case 1:
		sugs, plan, skipped, events = []core.Suggestion{}, []core.PlanEntry{}, []string{}, []drift.Event{}
	case 2, 3:
		for i := 0; i < int(n%3)+1; i++ {
			sug := core.Suggestion{Context: s2, Original: k1, Suggested: k2, Confidence: f1, CyclesPct: f2,
				Replace: shape&4 != 0, MemOriginal: uint64(n) << 40, MemSuggested: math.MaxUint64 - uint64(n), MemDeltaPct: f1 * f2}
			if shape&8 != 0 {
				sug.Explanation = &core.Explanation{}
				if shape&16 != 0 {
					sug.Explanation.Probs = []core.KindProb{{Kind: k2, Prob: f2}, {Kind: k1, Prob: f1 / 3}}
				}
			}
			sugs = append(sugs, sug)
			plan = append(plan, core.PlanEntry{Context: s1, From: s2, To: k2.String(), Confidence: f1, CyclesPct: f2, MemDeltaPct: -f1})
			skipped = append(skipped, s2)
			events = append(events, drift.Event{InstanceKey: s1 + "#0", Context: s2, Instance: int(n), Seq: -int(n),
				From: k1, To: k2, Confidence: f2, Votes: int(shape)})
		}
	}
	return AdviseResponse{Arch: s1, Profiles: int(n) - 1, Suggestions: sugs, Skipped: skipped, Plan: plan},
		ProfilesResponse{Arch: s2, Accepted: int(n), Instances: -int(n), OutOfOrder: int(shape), Unadvised: 1, Drift: events}
}

// FuzzReplyMatchesEncoder holds the append-based writer to json.Encoder
// with SetIndent("", "  "): the same bytes for every reply, and a refusal
// exactly when encoding/json refuses (a non-finite float).
func FuzzReplyMatchesEncoder(f *testing.F) {
	for _, s := range []string{"Core2", "", "a<b>&c", `q"uote\back`, "ctl\x00\x1f\n\t\b\f", "bad\xff\xfe", "line\u2028sep\u2029", "caf\u00e9 \u2603", "\x7f"} {
		for _, fl := range []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, 1e21, 9.999999999999999e20, -1e21, 123456789.125, 5e-324, math.MaxFloat64} {
			f.Add(s, "ctx/site", fl, 1-fl, uint8(7), uint8(0x1e))
		}
	}
	f.Add("Core2", "x", math.NaN(), 0.5, uint8(1), uint8(2))
	f.Add("Core2", "x", 0.5, math.Inf(-1), uint8(1), uint8(3))
	f.Add("Atom", "y", 0.25, 0.75, uint8(0), uint8(0))
	f.Add("Atom", "y", 0.25, 0.75, uint8(0), uint8(1))
	f.Add("Atom", "y", 0.25, 0.75, uint8(2), uint8(0x0a))
	f.Fuzz(func(t *testing.T, s1, s2 string, f1, f2 float64, n, shape uint8) {
		adv, prof := fuzzReplies(s1, s2, f1, f2, n, shape)
		got, ok := appendAdvise(nil, &adv)
		want, wantOK := encoderBytes(&adv)
		if ok != wantOK || ok && !bytes.Equal(got, want) {
			t.Fatalf("advise reply (ok %v, encoding/json ok %v):\n%s\nencoding/json:\n%s", ok, wantOK, got, want)
		}
		got, ok = appendProfiles(nil, &prof)
		want, wantOK = encoderBytes(&prof)
		if ok != wantOK || ok && !bytes.Equal(got, want) {
			t.Fatalf("profiles reply (ok %v, encoding/json ok %v):\n%s\nencoding/json:\n%s", ok, wantOK, got, want)
		}
	})
}
