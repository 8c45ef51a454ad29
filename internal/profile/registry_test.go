package profile

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/machine"
	"repro/internal/opstats"
)

func TestRegistryMergesPerContext(t *testing.T) {
	m := machine.New(machine.Core2())
	reg := NewRegistry(m)
	// Three containers at one site (e.g. one per request), one elsewhere.
	var site []*Container
	for i := 0; i < 3; i++ {
		c := reg.NewContainer(adt.KindList, 8, "server/handler.queue", true)
		for j := uint64(0); j < 10; j++ {
			c.Insert(j)
		}
		site = append(site, c)
	}
	other := reg.NewContainer(adt.KindSet, 8, "server/router.table", false)
	other.Insert(1)

	if reg.Instances("server/handler.queue") != 3 {
		t.Fatalf("instances = %d", reg.Instances("server/handler.queue"))
	}
	p, err := reg.Snapshot("server/handler.queue")
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Count[opstats.OpPushBack] != 30 {
		t.Fatalf("merged push_back count = %d, want 30", p.Stats.Count[opstats.OpPushBack])
	}
	if p.Kind != adt.KindList || !p.OrderAware {
		t.Fatalf("merged metadata wrong: %+v", p)
	}
	// Every hardware counter, TLB included, is the sum over the instances.
	var hw machine.Counters
	for _, c := range site {
		hw = hw.Add(c.Snapshot().HW)
	}
	if p.HW != hw {
		t.Fatalf("merged counters = %+v, want the instances' sum %+v", p.HW, hw)
	}
	if _, err := reg.Snapshot("nope"); err == nil {
		t.Fatal("unknown context accepted")
	}
}

func TestRegistrySnapshotsSortedByCycles(t *testing.T) {
	m := machine.New(machine.Core2())
	reg := NewRegistry(m)
	small := reg.NewContainer(adt.KindVector, 8, "small", false)
	big := reg.NewContainer(adt.KindVector, 8, "big", false)
	for i := uint64(0); i < 10; i++ {
		small.Insert(i)
	}
	for i := uint64(0); i < 5000; i++ {
		big.Insert(i)
		big.Find(i / 2)
	}
	ps := reg.Snapshots()
	if len(ps) != 2 {
		t.Fatalf("profiles = %d", len(ps))
	}
	if ps[0].Context != "big" {
		t.Fatalf("not sorted by cycles: %s first", ps[0].Context)
	}
	if got := reg.Contexts(); len(got) != 2 || got[0] != "small" {
		t.Fatalf("contexts = %v (want first-construction order)", got)
	}
}
