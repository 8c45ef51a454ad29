package opstats_test

import (
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func TestGaugeSetAddIncDec(t *testing.T) {
	var g telemetry.Gauge
	g.Set(4)
	g.Add(2.5)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 6.5 {
		t.Fatalf("value = %v, want 6.5", got)
	}
	g.Set(-1.25)
	if got := g.Value(); got != -1.25 {
		t.Fatalf("value = %v, want -1.25", got)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g telemetry.Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("balanced inc/dec left value %v", got)
	}
}

func TestGaugeExpose(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Gauge("inflight", "").Set(3)
	r.GaugeFunc("ratio", "", func() float64 { return 0.25 })
	r.Info("zone_info", "", `zone="a"`)
	want := "inflight 3\nratio 0.25\nzone_info{zone=\"a\"} 1\n"
	if got := page(r); got != want {
		t.Fatalf("exposed %q, want %q", got, want)
	}
}
