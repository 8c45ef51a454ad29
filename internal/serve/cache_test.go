package serve

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
)

func vectorProfile(context string, n int) profile.Profile {
	m := machine.New(machine.Core2())
	c := profile.NewContainer(adt.KindVector, m, 8, context, false)
	for i := uint64(0); i < uint64(n); i++ {
		c.Insert(i)
	}
	for i := 0; i < n; i++ {
		c.Find(uint64(i * 3))
	}
	return c.Snapshot()
}

func TestInferenceKeyIgnoresRequestFields(t *testing.T) {
	p := vectorProfile("site-a", 100)
	q := p
	q.Context = "site-b" // calling context is a report field, not a model input
	if inferenceKey(&p, p.Vector(), "Core2") != inferenceKey(&q, q.Vector(), "Core2") {
		t.Fatal("context changed the inference key")
	}
}

func TestInferenceKeyDiscriminates(t *testing.T) {
	p := vectorProfile("site", 100)
	base := inferenceKey(&p, p.Vector(), "Core2")
	if inferenceKey(&p, p.Vector(), "Atom") == base {
		t.Fatal("arch not part of the key")
	}
	q := p
	q.Kind = adt.KindList
	if inferenceKey(&q, q.Vector(), "Core2") == base {
		t.Fatal("kind not part of the key")
	}
	r := p
	r.OrderAware = true
	if inferenceKey(&r, r.Vector(), "Core2") == base {
		t.Fatal("order-awareness not part of the key")
	}
	s := p
	s.Stats.Count[0]++ // perturb the feature vector
	if inferenceKey(&s, s.Vector(), "Core2") == base {
		t.Fatal("feature vector not part of the key")
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRUCache(2)
	p1, p2, p3 := vectorProfile("a", 10), vectorProfile("b", 20), vectorProfile("c", 30)
	k1, k2, k3 := inferenceKey(&p1, p1.Vector(), "Core2"), inferenceKey(&p2, p2.Vector(), "Core2"), inferenceKey(&p3, p3.Vector(), "Core2")
	c.Put(k1, core.Suggestion{Confidence: 0.1})
	c.Put(k2, core.Suggestion{Confidence: 0.2})
	if _, ok := c.Get(k1); !ok { // refresh k1: k2 becomes LRU
		t.Fatal("k1 missing before eviction")
	}
	c.Put(k3, core.Suggestion{Confidence: 0.3})
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, ok := c.Get(k2); ok {
		t.Fatal("least recently used entry survived")
	}
	if v, ok := c.Get(k1); !ok || v.Confidence != 0.1 {
		t.Fatal("refreshed entry evicted")
	}
	if v, ok := c.Get(k3); !ok || v.Confidence != 0.3 {
		t.Fatal("newest entry missing")
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	c := newLRUCache(4)
	p := vectorProfile("a", 10)
	k := inferenceKey(&p, p.Vector(), "Core2")
	c.Put(k, core.Suggestion{Confidence: 0.5})
	c.Put(k, core.Suggestion{Confidence: 0.9})
	if c.Len() != 1 {
		t.Fatalf("len = %d after duplicate put", c.Len())
	}
	if v, _ := c.Get(k); v.Confidence != 0.9 {
		t.Fatalf("value not refreshed: %f", v.Confidence)
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newLRUCache(-1)
	p := vectorProfile("a", 10)
	k := inferenceKey(&p, p.Vector(), "Core2")
	c.Put(k, core.Suggestion{})
	if _, ok := c.Get(k); ok || c.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}
