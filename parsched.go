// Package parsched is a library for the evaluation of parallel job
// schedulers, reproducing Chapin et al., "Benchmarks and Standards for
// the Evaluation of Parallel Job Schedulers" (JSSPP/IPPS 1999).
//
// It provides:
//
//   - the Standard Workload Format v2 (read, write, validate, clean,
//     convert, anonymize) — internal/swf;
//   - the proposed standard outage-log format and generators —
//     internal/outage;
//   - the cited statistical workload models (Feitelson '96, Jann '97,
//     Lublin '99, Downey '97) plus a naive baseline — internal/model;
//   - a deterministic discrete-event machine-scheduler simulator with
//     FCFS/SJF/LXF, EASY and conservative backfilling, gang scheduling,
//     moldable jobs, outages, feedback (closed-loop think times), and
//     advance reservations — internal/{des,cluster,sched,sim};
//   - metacomputing: multi-site grids, meta-scheduler policies,
//     queue-wait prediction, and co-allocation — internal/{predict,meta};
//   - the WARMstones evaluation environment: annotated program graphs,
//     canonical metasystems, mapping policies, two simulation
//     fidelities — internal/{graph,warmstones};
//   - trace workload sources that make real SWF logs experiment
//     substrates (clean, rescale to a target load, resample per
//     replication) — internal/workload/trace;
//   - the E1–E10 experiment battery regenerating the paper's
//     evaluation programme on models or real traces —
//     internal/experiments.
//
// This root package is a thin facade over those subsystems: the type
// aliases below give external importers names for the core types, and
// the functions cover the common workflows (generate → simulate →
// report; load → validate → clean; run experiment battery).
package parsched

import (
	"context"
	"fmt"
	"io"

	"parsched/internal/core"
	"parsched/internal/experiments"
	"parsched/internal/metrics"
	"parsched/internal/model"
	"parsched/internal/model/registry"
	"parsched/internal/outage"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/swf"
	"parsched/internal/workload/trace"
)

// Aliases for the domain types a library user manipulates.
type (
	// Workload is an ordered collection of jobs plus machine context.
	Workload = core.Workload
	// Job is one unit of work submitted to a machine scheduler.
	Job = core.Job
	// Report aggregates scheduling metrics for one run.
	Report = metrics.Report
	// Outcome is the scheduling result of one job.
	Outcome = metrics.Outcome
	// SimOptions configure a simulation run.
	SimOptions = sim.Options
	// SimResult is the output of a simulation run.
	SimResult = sim.Result
	// SWFLog is a parsed standard workload file.
	SWFLog = swf.Log
	// OutageLog is a parsed standard outage file.
	OutageLog = outage.Log
	// ModelConfig carries workload-model generation knobs.
	ModelConfig = model.Config
	// ExperimentTable is one table of experiment output.
	ExperimentTable = experiments.Table
	// ExperimentMetric is one typed observation behind a table row.
	ExperimentMetric = experiments.Metric
	// BatchResult is the structured outcome of a parallel battery run.
	BatchResult = experiments.BatchResult
	// TraceSource is a cleaned, replay-ready view of a real SWF log.
	TraceSource = trace.Source
	// TraceOptions select the workload a TraceSource derives: target
	// offered load, truncation, and replication variant.
	TraceOptions = trace.Options
	// ExperimentConfig scales the experiment battery and selects its
	// workload substrate (synthetic model or real trace).
	ExperimentConfig = experiments.Config
	// BatchOptions configure the parallel battery (worker-pool size,
	// replications, per-cell callback).
	BatchOptions = experiments.BatchOptions
	// SchedulerSpec is a parsed scheduler specification in the spec
	// grammar: family("easy", "gang") plus typed parameters, e.g.
	// "easy(reserve=2, window)". Legacy names parse to specs.
	SchedulerSpec = sched.Spec
	// RunSpec is the unified, JSON-serializable run configuration:
	// scheduler spec × workload source × sim options × load points.
	RunSpec = experiments.RunSpec
	// RunResult is the outcome of one load point of a RunSpec.
	RunResult = experiments.RunResult
	// SourceSpec names a workload substrate (model:<name> or
	// trace:<path>).
	SourceSpec = experiments.Source
	// SimSpec is the serializable subset of the simulation options.
	SimSpec = experiments.SimSpec
	// Collector is the streaming metrics observer: feed it one Outcome
	// at a time (or attach it to a simulation via SimOptions.Observers)
	// and read the full Report without retaining the outcome slice.
	Collector = metrics.Collector
	// CollectorOptions configure a Collector: labels, bounded-slowdown
	// tau, warmup/cooldown truncation, O(1)-memory quantile sketches.
	CollectorOptions = metrics.CollectorOptions
	// MetricsSpec is the serializable collector configuration a
	// RunSpec carries.
	MetricsSpec = experiments.MetricsSpec
	// TimeSeries is the sampled utilization/queue/backlog series a
	// Collector records when the simulator samples.
	TimeSeries = metrics.TimeSeries
	// TimeSample is one instant of a TimeSeries.
	TimeSample = metrics.Sample
	// SimObserver receives outcomes as the simulation produces them.
	SimObserver = sim.Observer
)

// NewCollector returns a streaming metrics collector.
func NewCollector(opts CollectorOptions) *Collector { return metrics.NewCollector(opts) }

// Models lists the available workload model names.
func Models() []string { return registry.Names() }

// Schedulers lists the available scheduler names: registered families
// plus legacy aliases, derived from the scheduler registry so the
// listing cannot drift from what builds.
func Schedulers() []string { return sched.Names() }

// ParseSchedulerSpec parses a scheduler spec string (or legacy name)
// into its canonical SchedulerSpec.
func ParseSchedulerSpec(s string) (SchedulerSpec, error) { return sched.Parse(s) }

// SchedulerUsage renders the spec grammar and the full catalogue of
// families, parameters, and legacy names, derived from the registry.
func SchedulerUsage() string { return sched.Usage() }

// ParseWorkloadSource parses a workload source spec ("model:<name>",
// "trace:<path>", or a bare model name).
func ParseWorkloadSource(s string) SourceSpec { return experiments.ParseSource(s) }

// Run executes a RunSpec — the unified run configuration — returning
// one result per load point. The same RunSpec always names the same
// run: results are deterministic and the spec JSON round-trips.
func Run(rs RunSpec) ([]RunResult, error) { return experiments.Execute(rs) }

// Experiments lists the experiment IDs with their titles.
func Experiments() map[string]string {
	out := map[string]string{}
	for _, r := range experiments.All() {
		out[r.ID] = r.Title
	}
	return out
}

// Generate produces a synthetic workload from a named model.
func Generate(modelName string, cfg ModelConfig) (*Workload, error) {
	m, err := registry.New(modelName)
	if err != nil {
		return nil, err
	}
	return m.Generate(cfg), nil
}

// Simulate runs a workload under a scheduler named by a spec string
// (or legacy name) and returns the raw result; call Result.Report for
// aggregate metrics.
func Simulate(w *Workload, scheduler string, opts SimOptions) (*SimResult, error) {
	s, err := sched.New(scheduler)
	if err != nil {
		return nil, err
	}
	return sim.Run(w, s, opts)
}

// ReadSWF parses a standard workload file from r.
func ReadSWF(r io.Reader) (*SWFLog, error) { return swf.Read(r) }

// WriteSWF serializes a standard workload file to w.
func WriteSWF(w io.Writer, log *SWFLog) error { return swf.Write(w, log) }

// ValidateSWF returns the standard's consistency findings as strings
// (empty = clean).
func ValidateSWF(log *SWFLog) []string {
	var out []string
	for _, v := range swf.Validate(log) {
		out = append(out, v.String())
	}
	return out
}

// CleanSWF reduces a raw log to the canonical workload-study view and
// reports what was changed.
func CleanSWF(log *SWFLog) (*SWFLog, string) {
	clean, rep := swf.Clean(log)
	return clean, fmt.Sprintf("%d records in, %d out (%d partials, %d no-runtime, %d no-procs dropped; %d CPU clamps)",
		rep.Input, rep.Output, rep.DroppedPartials, rep.DroppedNoRuntime, rep.DroppedNoProcs, rep.ClampedCPU)
}

// WorkloadFromSWF converts a clean standard log into a workload.
func WorkloadFromSWF(log *SWFLog) (*Workload, error) { return core.FromSWF(log) }

// OpenTrace loads, cleans, and converts the SWF log at path into a
// reusable workload source: rescale it to target offered loads, and
// derive deterministic per-replication resampled variants.
func OpenTrace(path string) (*TraceSource, error) { return trace.Open(path) }

// TraceFromLog builds a workload source from an already-parsed log.
func TraceFromLog(name string, log *SWFLog) (*TraceSource, error) {
	return trace.FromLog(name, log)
}

// WorkloadToSWF converts a workload into a standard log.
func WorkloadToSWF(w *Workload) *SWFLog { return core.ToSWF(w) }

// InferFeedback inserts preceding-job/think-time dependencies using the
// paper's same-user rapid-succession heuristic; it returns how many
// jobs were linked.
func InferFeedback(w *Workload, windowSeconds int64) int {
	return core.InferFeedback(w, windowSeconds).LinkedJobs
}

// RecordSWF converts a simulation result into the standard workload
// file the simulated machine's accounting system would have written
// (waits filled in, kills as partial-execution records), closing the
// simulate → record → re-analyze loop of the paper's Section 3.3.
func RecordSWF(w *Workload, res *SimResult) *SWFLog { return sim.RecordSWF(w, res) }

// DefaultExperimentConfig returns the EXPERIMENTS.md-scale battery
// configuration; QuickExperimentConfig the seconds-scale one. Both are
// starting points: set Source, Loads, or Scheds before running.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// QuickExperimentConfig returns a seconds-scale configuration.
func QuickExperimentConfig() ExperimentConfig { return experiments.QuickConfig() }

// RunExperimentConfig executes one experiment (E1..E10) under an
// explicit configuration. A zero ExperimentConfig means the defaults.
func RunExperimentConfig(id string, cfg ExperimentConfig) ([]ExperimentTable, error) {
	r, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("parsched: unknown experiment %q", id)
	}
	return r.Run(cfg)
}

// RunExperimentsConfig executes the whole battery in order, serially,
// under an explicit configuration.
func RunExperimentsConfig(cfg ExperimentConfig) ([]ExperimentTable, error) {
	var tables []ExperimentTable
	for _, r := range experiments.All() {
		ts, err := r.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("parsched: %s: %w", r.ID, err)
		}
		tables = append(tables, ts...)
	}
	return tables, nil
}

// RunBatteryConfig shards the whole battery (experiments ×
// replications) across a bounded worker pool with deterministic
// per-cell seeds; see experiments.RunBatch for the semantics.
func RunBatteryConfig(ctx context.Context, cfg ExperimentConfig, opts BatchOptions) *BatchResult {
	return experiments.RunBatch(ctx, experiments.All(), cfg, opts)
}
