// Command brainy is the analysis front end of Figure 3: it reads a trace of
// container profiles (written by the instrumented library) plus a trained
// model registry, and prints the prioritized replacement report.
//
// Usage:
//
//	brainy -models models.json -trace trace.jsonl -arch Core2
//	brainy -models models.json -trace windows.jsonl -windows
//	brainy -models models.json -demo xalan:reference -arch Atom
//
// The -demo mode profiles one of the built-in evaluation workloads in-place
// instead of reading a trace file.
//
// With -windows the trace is read as a snapshot-window stream (the output
// of profile.SnapshotExporter): the report gains a per-instance timeline
// summary and phase-drift detection, and the replacement report is computed
// over each instance's windows summed back into a whole-run profile. Pass
// -rules to run drift detection with the deterministic rules advisor
// instead of the loaded models.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/training"
	"repro/internal/workloads/chord"
	"repro/internal/workloads/raytrace"
	"repro/internal/workloads/relipmoc"
	"repro/internal/workloads/xalan"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("brainy: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		modelsPath = flag.String("models", "models.json", "trained model registry (from brainy-train)")
		tracePath  = flag.String("trace", "", "JSON-lines profile trace to analyze")
		windows    = flag.Bool("windows", false, "read -trace as a snapshot-window stream: adds timelines and drift detection")
		rules      = flag.Bool("rules", false, "with -windows, detect drift with the deterministic rules advisor instead of the models")
		demo       = flag.String("demo", "", "profile a built-in workload instead: app[:input], e.g. xalan:train")
		archName   = flag.String("arch", "Core2", "architecture the trace was collected on (Core2 or Atom)")
		planPath   = flag.String("plan", "", "also write a machine-readable replacement plan (JSON) to this path")
	)
	flag.Parse()

	f, err := os.Open(*modelsPath)
	if err != nil {
		return err
	}
	set, err := training.LoadModelSet(f)
	f.Close()
	if err != nil {
		return err
	}
	brainy := core.New(set)

	var profiles []profile.Profile
	switch {
	case *windows:
		if *tracePath == "" {
			return fmt.Errorf("-windows requires -trace")
		}
		tf, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		profiles, err = analyzeWindows(tf, brainy, *archName, *rules)
		tf.Close()
		if err != nil {
			return err
		}
	case *demo != "":
		profiles, err = demoProfiles(*demo, *archName)
		if err != nil {
			return err
		}
	case *tracePath != "":
		tf, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		profiles, err = profile.ReadTrace(tf)
		tf.Close()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -trace or -demo is required")
	}

	report := brainy.Analyze(profiles, *archName)
	fmt.Print(report.Render())
	if len(report.Replacements()) == 0 {
		fmt.Println("no replacements suggested: the current containers look optimal")
	}
	if *planPath != "" {
		pf, err := os.Create(*planPath)
		if err != nil {
			return err
		}
		if err := report.WritePlan(pf); err != nil {
			pf.Close()
			return err
		}
		if err := pf.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote replacement plan to %s\n", *planPath)
	}
	return nil
}

// analyzeWindows decodes a snapshot-window stream, prints the per-instance
// timeline summary and any confirmed drift events, and returns one
// whole-run profile per instance (its windows summed back together) for the
// ordinary replacement report. Timelines are keyed "context#instance" so
// the report distinguishes multiple containers from one construction site.
func analyzeWindows(r *os.File, brainy *core.Brainy, archName string, useRules bool) ([]profile.Profile, error) {
	suggest := brainy.Suggest
	if useRules {
		suggest = drift.Rules
	}
	var evs []drift.Event
	det := drift.New(suggest, drift.Config{OnEvent: func(ev drift.Event) { evs = append(evs, ev) }})

	type agg struct {
		p       profile.Profile
		windows int
	}
	sums := map[string]*agg{}
	var order []string
	err := profile.DecodeWindows(r, func(w *profile.WindowRecord) error {
		// A suggester error (no model for this kind/arch) leaves the
		// instance unadvised; its timeline still accumulates.
		_, _ = det.Observe(w, archName)
		key := w.InstanceKey()
		a, ok := sums[key]
		if !ok {
			p := w.Profile
			p.Context = key
			sums[key] = &agg{p: p, windows: 1}
			order = append(order, key)
			return nil
		}
		a.p.Stats.Add(w.Stats)
		a.p.HW = a.p.HW.Add(w.HW)
		a.p.Cycles += w.Cycles
		a.windows++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no window records in stream (was this trace written with -windows profiling?)")
	}

	fmt.Printf("window timelines (%d instances):\n", len(order))
	statuses := map[string]drift.Status{}
	for _, st := range det.Statuses() {
		statuses[st.InstanceKey] = st
	}
	sorted := append([]string(nil), order...)
	sort.Strings(sorted)
	for _, key := range sorted {
		a := sums[key]
		line := fmt.Sprintf("  %-40s %-9s %4d windows  %8d ops",
			key, a.p.Kind, a.windows, a.p.Stats.TotalCalls())
		if st, ok := statuses[key]; ok && st.Advised {
			advice := st.Initial.String()
			if st.Current != st.Initial {
				advice = fmt.Sprintf("%s -> %s", st.Initial, st.Current)
			}
			line += fmt.Sprintf("  advice %s (confidence %.2f)", advice, st.Confidence)
			if st.Drifted() {
				line += fmt.Sprintf("  DRIFTED x%d", st.Events)
			}
		} else {
			line += "  advice -"
		}
		fmt.Println(line)
	}
	if len(evs) > 0 {
		fmt.Printf("phase drift (%d events):\n", len(evs))
		for _, ev := range evs {
			fmt.Printf("  %s\n", ev)
		}
	} else {
		fmt.Println("phase drift: none detected")
	}
	fmt.Println()

	profiles := make([]profile.Profile, 0, len(order))
	for _, key := range order {
		profiles = append(profiles, sums[key].p)
	}
	return profiles, nil
}

func archByName(name string) (machine.Config, error) {
	switch name {
	case "Core2", "core2":
		return machine.Core2(), nil
	case "Atom", "atom":
		return machine.Atom(), nil
	}
	return machine.Config{}, fmt.Errorf("unknown architecture %q", name)
}

func demoProfiles(spec, archName string) ([]profile.Profile, error) {
	arch, err := archByName(archName)
	if err != nil {
		return nil, err
	}
	app, input := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		app, input = spec[:i], spec[i+1:]
	}
	switch app {
	case "xalan":
		if input == "" {
			input = "reference"
		}
		in, err := xalan.InputByName(input)
		if err != nil {
			return nil, err
		}
		return []profile.Profile{xalan.Run(xalan.Original(), in, arch).Profile}, nil
	case "chord":
		if input == "" {
			input = "medium"
		}
		in, err := chord.InputByName(input)
		if err != nil {
			return nil, err
		}
		return []profile.Profile{chord.Run(chord.Original(), in, arch).Profile}, nil
	case "relipmoc":
		return []profile.Profile{relipmoc.Run(relipmoc.Original(), relipmoc.Inputs()[1], arch).Profile}, nil
	case "raytrace":
		in, err := raytrace.InputByName("default")
		if err != nil {
			return nil, err
		}
		return []profile.Profile{raytrace.Run(raytrace.Original(), in, arch).Profile}, nil
	}
	return nil, fmt.Errorf("unknown demo app %q (want xalan, chord, relipmoc, raytrace)", app)
}
