package adt

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/machine"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/kinds.golden")

const kindsGolden = "testdata/kinds.golden"

// kindDigest drives one container of kind k through a fixed seeded stream
// of every Container call plus both drains, on a fresh Core2 machine, and
// hashes each call's return value, the length, the full operation
// statistics, and the machine counters after every call. It also counts the
// EraseFront and drain calls made on an empty container, so the caller can
// check that the stream reaches those paths.
func kindDigest(k Kind) (digest string, emptyFronts, emptyDrains int) {
	m := machine.New(machine.Core2())
	c := New(k, m, 24)
	rng := rand.New(rand.NewSource(20111))
	h := sha256.New()
	for step := 0; step < 3000; step++ {
		key := uint64(rng.Intn(64))
		empty := c.Len() == 0
		var ret string
		switch op := rng.Intn(100); {
		case op < 20:
			c.Insert(key)
		case op < 28:
			pos := rng.Intn(c.Len() + 1)
			c.InsertAt(pos, key)
			ret = fmt.Sprint(pos)
		case op < 36:
			c.PushFront(key)
		case op < 46:
			ret = fmt.Sprint(c.Erase(key))
		case op < 56:
			ret = fmt.Sprint(c.EraseFront())
			if empty {
				emptyFronts++
			}
		case op < 66:
			ret = fmt.Sprint(c.Find(key))
		case op < 74:
			ret = fmt.Sprint(c.Iterate(rng.Intn(24) - 1))
		case op < 77:
			c.Clear()
		case op < 80:
			ret = fmt.Sprint(c.Kind())
		case op < 90:
			x, ok := c.DrainFront()
			ret = fmt.Sprint(x, ok)
			if empty {
				emptyDrains++
			}
		default:
			x, ok := c.DrainBack()
			ret = fmt.Sprint(x, ok)
			if empty {
				emptyDrains++
			}
		}
		fmt.Fprintf(h, "%d %d %s len=%d %+v %+v\n", step, key, ret, c.Len(), *c.Stats(), m.Counters())
	}
	return fmt.Sprintf("%x", h.Sum(nil)), emptyFronts, emptyDrains
}

// TestKindBehaviourGolden pins every kind's observable behaviour: return
// values, length, opstats.Stats and machine.Counters along one seeded
// stream must match testdata/kinds.golden byte for byte. Regenerate only
// for an intended behaviour change:
//
//	go test ./internal/adt -run TestKindBehaviourGolden -update-golden
func TestKindBehaviourGolden(t *testing.T) {
	var b strings.Builder
	for _, k := range allKinds() {
		digest, fronts, drains := kindDigest(k)
		if fronts == 0 || drains == 0 {
			t.Fatalf("%v: stream never reached an empty container (EraseFront %d, drains %d)", k, fronts, drains)
		}
		fmt.Fprintf(&b, "%s %s\n", k, digest)
	}
	if *updateGolden {
		if err := os.WriteFile(kindsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", kindsGolden)
		return
	}
	data, err := os.ReadFile(kindsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got := b.String(); got != string(data) {
		t.Errorf("per-kind digests differ from %s\ngot:\n%sgolden:\n%s", kindsGolden, got, data)
	}
}
