package training

import "repro/internal/telemetry"

// Registry is the training pipeline's central metric registry: every
// brainy_train_* counter is registered once, with HELP/TYPE metadata, and
// the whole family renders in one sorted pass (Registry.Expose).
var Registry = telemetry.NewRegistry()

// PipelineMetrics aggregates throughput counters for the training pipeline
// so long runs are observable: how many synthetic applications Phase-I has
// simulated, how many decisive labels it has found, how much simulated
// machine time has been burned, and how far Phase-II, validation, and model
// fitting have progressed. All fields are safe for concurrent use.
type PipelineMetrics struct {
	SeedsScanned    *telemetry.Counter      // Phase-I applications generated and simulated
	LabelsFound     *telemetry.Counter      // decisive (seed, best) pairs recorded
	CyclesSimulated *telemetry.FloatCounter // simulated machine cycles across all phases
	EventsSimulated *telemetry.Counter      // simulated machine events (memory ops, branches, allocator calls)
	Phase2Examples  *telemetry.Counter      // labelled feature vectors produced
	Phase2Dropped   *telemetry.Counter      // Phase-II examples dropped (winner outside candidates)
	ModelsTrained   *telemetry.Counter      // ANNs fitted
	TargetsResumed  *telemetry.Counter      // targets skipped entirely via checkpoint resume
	ValidationApps  *telemetry.Counter      // validation applications simulated
}

// Metrics is the package-wide pipeline instrumentation, incremented by
// Phase1/Phase2/Validate/TrainArchs as they run.
var Metrics = PipelineMetrics{
	SeedsScanned:    Registry.Counter("brainy_train_seeds_scanned_total", "Phase-I applications generated and simulated."),
	LabelsFound:     Registry.Counter("brainy_train_labels_found_total", "Decisive (seed, best) pairs recorded by Phase-I."),
	CyclesSimulated: Registry.FloatCounter("brainy_train_simulated_cycles_total", "Simulated machine cycles across all phases."),
	EventsSimulated: Registry.Counter("brainy_train_simulated_events_total", "Simulated machine events (memory ops, branches, allocator calls)."),
	Phase2Examples:  Registry.Counter("brainy_train_phase2_examples_total", "Labelled feature vectors produced by Phase-II."),
	Phase2Dropped:   Registry.Counter("brainy_train_phase2_dropped_total", "Phase-II examples dropped (winner outside candidates)."),
	ModelsTrained:   Registry.Counter("brainy_train_models_trained_total", "ANNs fitted."),
	TargetsResumed:  Registry.Counter("brainy_train_targets_resumed_total", "Targets skipped entirely via checkpoint resume."),
	ValidationApps:  Registry.Counter("brainy_train_validation_apps_total", "Validation applications simulated."),
}
