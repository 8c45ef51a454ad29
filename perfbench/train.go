package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// The train workload's fixed budget: all seven Core2 targets, 20 labelled
// applications each at 100 interface calls, 40 epochs, 8 validation
// applications per model, on two workers. brainy-train has no seed flag —
// its applications come from fixed seed ranges — so every -seed trains the
// same registry, which is what lets runs be compared by fingerprint.
const (
	trainApps     = 20
	trainCalls    = 100
	trainEpochs   = 40
	trainValidate = 8
	trainWorkers  = 2
	// minTrainRuns brainy-train runs are made even when they outlast the
	// timed phase, so every run has a median of several.
	minTrainRuns = 3
	// trainSetupLaunches extra launches at a one-application budget time the
	// set-up alone: a launch takes a few milliseconds and varies by half
	// from one launch to the next, so a handful of full runs is too few.
	trainSetupLaunches = 12
)

func trainArgs() []string {
	return []string{"-arch", "core2", "-workers", strconv.Itoa(trainWorkers),
		"-apps", strconv.Itoa(trainApps), "-calls", strconv.Itoa(trainCalls),
		"-epochs", strconv.Itoa(trainEpochs), "-validate", strconv.Itoa(trainValidate)}
}

// setupArgs is the smallest budget brainy-train accepts; it follows the
// same path as trainArgs up to the pipeline start.
func setupArgs() []string {
	return []string{"-arch", "core2", "-workers", strconv.Itoa(trainWorkers),
		"-apps", "1", "-calls", "10", "-epochs", "1", "-validate", "0"}
}

// trainRun is what one brainy-train run showed from outside.
type trainRun struct {
	wall        time.Duration // launch to exit, after the registry is written
	setup       time.Duration // launch to the pipeline start the report records
	rssMB       float64
	labels      uint64
	valAccuracy []float64 // per target, sorted
	fingerprint string
	stolen      float64 // share of CPU time the host took during the run
}

// meanAccuracy averages sorted per-target accuracies, so equal sets give
// bit-equal means.
func meanAccuracy(sorted []float64) float64 {
	sum := 0.0
	for _, a := range sorted {
		sum += a
	}
	return sum / float64(len(sorted))
}

// trainOnce runs brainy-train in a fresh directory (so the checkpoint
// directory is new) and checks that its registry loads.
func trainOnce(e env, dir string, budget []string) (trainRun, error) {
	var r trainRun
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return r, err
	}
	models := filepath.Join(dir, "models.json")
	reportPath := filepath.Join(dir, "report.json")
	args := append(budget, "-o", models, "-checkpoint", filepath.Join(dir, "ckpt"), "-report", reportPath)
	cmd := exec.Command(filepath.Join(e.bin, "brainy-train"), args...)
	cmd.SysProcAttr = childAttr()
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	t0 := time.Now()
	err := cmd.Run()
	r.wall = time.Since(t0)
	if err != nil {
		return r, fmt.Errorf("brainy-train: %v:\n%s", err, out.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		return r, err
	}
	var rep struct {
		StartedAt time.Time `json:"started_at"`
		Labels    uint64    `json:"labels_found"`
		Targets   []struct {
			ValAccuracy float64 `json:"validation_accuracy"`
		} `json:"targets"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return r, fmt.Errorf("decoding %s: %w", reportPath, err)
	}
	r.setup = rep.StartedAt.Sub(t0)
	r.labels = rep.Labels
	for _, t := range rep.Targets {
		r.valAccuracy = append(r.valAccuracy, t.ValAccuracy)
	}
	sort.Float64s(r.valAccuracy)

	set, err := loadRegistry(models)
	if err != nil {
		return r, err
	}
	if set.Len() != 7 {
		return r, fmt.Errorf("%s holds %d models, want 7", models, set.Len())
	}
	r.fingerprint = set.Fingerprint()
	return r, nil
}

// runTrain runs brainy-train back to back until the timed phase is over,
// and checks that every run wrote the same registry.
func runTrain(e env, rep *report) error {
	rep.Facts["train_flags"] = trainArgs()
	if e.trace {
		rep.Attempted++
		ref, err := trainOnce(e, filepath.Join(e.out, "train"), trainArgs())
		if err != nil {
			return err
		}
		rep.Facts["fingerprint"] = ref.fingerprint
		return traceTrain(e, rep, ref)
	}

	// The host's speed is measured between brainy-train launches.
	meter := newSpeedMeter()
	launchOnce := func(dir string, budget []string) (trainRun, error) {
		if _, err := meter.measure(); err != nil {
			return trainRun{}, err
		}
		steal0, total0, err := cpuTicks()
		if err != nil {
			return trainRun{}, err
		}
		r, err := trainOnce(e, dir, budget)
		if err != nil {
			return r, err
		}
		steal1, total1, err := cpuTicks()
		if total1 > total0 {
			r.stolen = float64(steal1-steal0) / float64(total1-total0)
		}
		return r, err
	}

	setupSpan, err := meter.begin()
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < trainSetupLaunches; i++ {
		rep.Attempted++
		r, err := launchOnce(filepath.Join(e.out, "setup"), setupArgs())
		if err != nil {
			rep.fail("set-up launch %d: %v", i, err)
			continue
		}
		setups = append(setups, r.setup.Seconds())
	}
	if _, err := meter.measure(); err != nil {
		return err
	}
	setupSpeed, measured, setupStolen, err := meter.speedOver(setupSpan)
	if err != nil {
		return err
	}
	rep.set("host.setup_speed", setupSpeed, "ratio", measured)
	rep.set("host.setup_stolen", setupStolen, "ratio", measured)

	var runs []trainRun
	var first *trainRun
	start := time.Now()
	for i := 0; i < minTrainRuns || time.Since(start) < e.seconds; i++ {
		rep.Attempted++
		r, err := launchOnce(filepath.Join(e.out, fmt.Sprintf("train-%d", i)), trainArgs())
		if err != nil {
			rep.fail("run %d: %v", i, err)
			continue
		}
		if first == nil {
			first = &r
		} else if r.fingerprint != first.fingerprint || !reflect.DeepEqual(r.valAccuracy, first.valAccuracy) {
			rep.fail("run %d: registry %s (val accuracy %v), the first run wrote %s (%v)",
				i, r.fingerprint, r.valAccuracy, first.fingerprint, first.valAccuracy)
		}
		runs = append(runs, r)
	}
	if first == nil {
		return fmt.Errorf("no brainy-train run succeeded: %v", rep.Failures)
	}
	if _, err := meter.measure(); err != nil {
		return err
	}
	cpuSpeed, measured, err := meter.medianSince(start)
	if err != nil {
		return err
	}

	// The quiet runs make the metrics, at the host's speed over them.
	runs = quiet(runs, func(r trainRun) float64 { return r.stolen })
	var walls, rss []float64
	var labels uint64
	total, stolen := 0.0, 0.0
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		rss = append(rss, r.rssMB)
		labels += r.labels
		total += r.wall.Seconds()
		stolen += r.stolen * r.wall.Seconds()
	}
	stolen /= total
	speed := hostSpeed(cpuSpeed, stolen)
	rep.set("host.speed", speed, "ratio", measured)
	rep.set("host.stolen", stolen, "ratio", len(runs))
	n := len(walls)
	rep.set("setup_s", median(setups)*setupSpeed, "s", len(setups))
	rep.set("raw.setup_s", median(setups), "s", len(setups))
	rep.set("ops_s", float64(labels)/total/speed, "1/s", n)
	rep.set("raw.ops_s", float64(labels)/total, "1/s", n)
	rep.set("raw.p50_ms", 1000*quantile(walls, 0.5), "ms", n)
	rep.set("raw.p90_ms", 1000*quantile(walls, 0.9), "ms", n)
	rep.set("train_s", median(walls)*speed, "s", n)
	rep.set("p50_ms", 1000*quantile(walls, 0.5)*speed, "ms", n)
	rep.set("p90_ms", 1000*quantile(walls, 0.9)*speed, "ms", n)
	rep.set("rss_mb", median(rss), "MB", n)
	rep.set("val_accuracy", meanAccuracy(first.valAccuracy), "ratio", n)
	rep.Facts["fingerprint"] = first.fingerprint
	return nil
}
