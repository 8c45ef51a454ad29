// Phasedemo: watch a container's best implementation change mid-run.
//
// The workload (internal/workloads/phases) builds a working set into a
// vector, then switches to membership queries. End-of-run analysis blends
// both phases into one verdict; with snapshot windows enabled, the
// per-window feature timeline shows the operation mix flip, and the drift
// detector flags the moment the advised container moves from vector to
// hash_set.
//
// Run with: go run ./examples/phasedemo
// Flags:
//
//	-window N   interface invocations per snapshot window (default 64)
//	-keys N     working-set size (default 256)
//	-adaptive   close the loop: run the workload on the self-tuning
//	            container, which hot-migrates its backend when the drift
//	            detector fires, and compare its cost against every static
//	            choice
//	-o FILE     also export the window stream as JSON lines, ready to
//	            POST to brainy-serve's /v1/profiles or replay through
//	            brainy -windows
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/adt"
	"repro/internal/containers/adaptive"
	"repro/internal/drift"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/workloads/phases"
)

// runStatic drives the workload on one fixed backend and returns the
// simulated cycle cost — the baseline the adaptive run is judged against.
func runStatic(kind adt.Kind, cfg phases.Config) float64 {
	m := machine.New(machine.Core2())
	phases.Drive(adt.New(kind, m, 8), cfg)
	return m.Cycles()
}

// runAdaptive is the -adaptive mode: the same workload, but the container
// reacts to its own drift events by hot-migrating the backend in place.
func runAdaptive(cfg phases.Config, window int, extra profile.WindowSink) {
	arch := machine.Core2()
	m := machine.New(arch)
	a := adaptive.New(m, adaptive.Config{
		Kind:     phases.Original,
		ElemSize: 8,
		Context:  phases.Context,
		Window:   window,
		Detector: drift.Config{
			Window:     2,
			Hysteresis: 2,
			OnEvent: func(e drift.Event) {
				fmt.Printf("  !! %s\n", e)
			},
		},
		Arch: arch.Name,
		Sink: extra,
	})

	fmt.Printf("phasedemo -adaptive: %d ops starting on a %s, %d-op windows\n",
		cfg.Ops(), phases.Original, window)
	phases.Drive(a, cfg)
	a.FlushWindow()

	fmt.Println("\nmigration log:")
	for _, g := range a.Migrations() {
		fmt.Printf("  %s -> %s at op %d..%d  moved %d  window #%d  confidence %.2f\n",
			g.From, g.To, g.StartOp, g.EndOp, g.Moved, g.WindowSeq, g.Confidence)
	}

	// Score the adaptive run against every static choice on the identical
	// operation stream: it should beat the mistaken original and sit within
	// striking distance of the oracle pick.
	adaptiveCycles := m.Cycles()
	fmt.Println("\nsimulated cycles, same stream on every backend:")
	fmt.Printf("  %-10s %14.0f\n", "adaptive", adaptiveCycles)
	best, bestCycles := adt.Kind(0), 0.0
	for _, k := range []adt.Kind{phases.Original, adt.KindHashSet, adt.KindSet} {
		c := runStatic(k, cfg)
		fmt.Printf("  %-10s %14.0f\n", k, c)
		if bestCycles == 0 || c < bestCycles {
			best, bestCycles = k, c
		}
	}
	fmt.Printf("  best static: %s\n", best)

	// Machine-checkable summary lines (the CI smoke job greps these).
	fmt.Printf("\nadaptive final kind %s\n", a.Kind())
	fmt.Printf("adaptive migrations %d\n", len(a.Migrations()))
	fmt.Printf("adaptive drift-skipped %d\n", a.DriftSkipped())
	fmt.Printf("adaptive beats original %v\n", adaptiveCycles < runStatic(phases.Original, cfg))
	if len(a.Migrations()) == 0 {
		fmt.Println("no migration happened — try a smaller -window")
		os.Exit(1)
	}
}

func main() {
	window := flag.Int("window", 64, "interface invocations per snapshot window")
	keys := flag.Int("keys", 256, "working-set size built in phase one")
	adaptiveMode := flag.Bool("adaptive", false, "run on the self-tuning container and compare against static choices")
	out := flag.String("o", "", "write the window stream as JSON lines to this file")
	flag.Parse()

	cfg := phases.Config{Keys: *keys}
	arch := machine.Core2()
	m := machine.New(arch)

	var exp *profile.SnapshotExporter
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		exp = profile.NewSnapshotExporter(f)
		defer func() {
			if err := exp.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *adaptiveMode {
		var extra profile.WindowSink
		if exp != nil {
			extra = exp
		}
		runAdaptive(cfg, *window, extra)
		return
	}

	// Drift detection over the deterministic rules advisor: no trained
	// models needed, same verdicts every run.
	var evs []drift.Event
	det := drift.New(drift.Rules, drift.Config{
		Window:     2,
		Hysteresis: 2,
		OnEvent: func(e drift.Event) {
			fmt.Printf("  !! %s\n", e)
			evs = append(evs, e)
		},
	})

	ring := profile.NewWindowRing(1024)
	sinks := []profile.WindowSink{ring, det.Sink(arch.Name)}
	if exp != nil {
		sinks = append(sinks, exp)
	}

	reg := profile.NewRegistry(m)
	reg.EnableWindows(*window, profile.MultiWindowSink(sinks...))

	fmt.Printf("phasedemo: %d ops over a %s, %d-op windows\n",
		cfg.Ops(), phases.Original, *window)
	c := reg.NewContainer(phases.Original, 8, phases.Context, false)
	phases.Drive(c, cfg)
	reg.FlushWindows()

	// The timeline: one row per window, showing the mix flip.
	fmt.Println("\nwindow timeline (per-window operation mix):")
	for _, w := range ring.Records() {
		v := w.Vector()
		fmt.Printf("  #%-3d ops %4d-%-4d  insert %3.0f%%  find %3.0f%%  iterate %3.0f%%  len %d\n",
			w.Seq, w.StartOp, w.EndOp,
			100*(v[0]+v[4]), 100*v[2], 100*v[3], w.Len)
	}

	fmt.Println("\ndrift verdicts:")
	for _, st := range det.Statuses() {
		fmt.Printf("  %-28s initial %-9s current %-9s events %d\n",
			st.InstanceKey, st.Initial, st.Current, st.Events)
	}
	if len(evs) == 0 {
		fmt.Println("no drift detected — try a smaller -window")
		os.Exit(1)
	}
	fmt.Printf("\n%d drift event(s); the whole-run blend would have hidden the %s phase.\n",
		len(evs), adt.KindHashSet)

	// Contrast: the single end-of-run verdict the static profile gives.
	whole := c.Snapshot()
	s, err := drift.Rules(&whole, arch.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("whole-run verdict for comparison: %s -> %s (one blended answer for two phases)\n",
		s.Original, s.Suggested)
}
