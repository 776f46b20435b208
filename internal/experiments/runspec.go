package experiments

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"parsched/internal/core"
	"parsched/internal/metrics"
	"parsched/internal/model"
	"parsched/internal/model/registry"
	"parsched/internal/outage"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/workload/trace"
)

// RunSpec is the unified, JSON-serializable run configuration: a
// scheduler spec × a workload source spec × simulation options × load
// points. It is the single vocabulary the facade, the experiment
// grids, and both CLIs use to name a run: a RunSpec written to disk
// today names the same run tomorrow.
type RunSpec struct {
	// Scheduler names the system under test in the spec grammar
	// (internal/sched): "easy", "gang(mpl=5)", "easy(reserve=2, window)".
	Scheduler sched.Spec `json:"scheduler"`
	// Source selects the workload substrate.
	Source Source `json:"source"`
	// Jobs truncates the workload (0 = source default / whole trace).
	Jobs int `json:"jobs,omitempty"`
	// Nodes is the machine size for model sources (0 = default; trace
	// sources follow the trace's own machine).
	Nodes int `json:"nodes,omitempty"`
	// Seed is the base RNG seed (0 = the battery default).
	Seed int64 `json:"seed,omitempty"`
	// Rep is the replication variant (trace sources resample
	// interarrivals for Rep > 0; model sources vary by seed).
	Rep int `json:"rep,omitempty"`
	// Loads are the offered-load points to run, one result per point.
	// Empty means one run at the source's recorded/default load, and so
	// does a point of 0. A negative, NaN or infinite point is an error.
	Loads []float64 `json:"loads,omitempty"`
	// Sim carries the serializable simulation options.
	Sim SimSpec `json:"sim,omitempty"`
	// Metrics configures the streaming collector each run reports
	// through: tau override, warmup/cooldown truncation, quantile
	// sketches, time-series sampling. The zero value reproduces the
	// classic full-population batch report bit for bit.
	Metrics MetricsSpec `json:"metrics,omitempty"`
}

// MetricsSpec is the serializable configuration of the streaming
// metrics collector a run reports through.
type MetricsSpec struct {
	// Tau is the bounded-slowdown runtime floor in seconds (0 = the
	// default 10 s).
	Tau int64 `json:"tau,omitempty"`
	// WarmupJobs drops the first K finished jobs from the statistics.
	WarmupJobs int `json:"warmupJobs,omitempty"`
	// CooldownJobs drops the last K finished jobs.
	CooldownJobs int `json:"cooldownJobs,omitempty"`
	// WarmupTime drops completions before this simulation time (s).
	WarmupTime int64 `json:"warmupTime,omitempty"`
	// CooldownTime drops completions after this simulation time (s).
	CooldownTime int64 `json:"cooldownTime,omitempty"`
	// Sketch switches to O(1)-memory quantile sketches (P²) instead of
	// exact retained samples.
	Sketch bool `json:"sketch,omitempty"`
	// SampleEvery records a utilization/queue/backlog sample every
	// this many seconds (0 = no time series).
	SampleEvery int64 `json:"sampleEvery,omitempty"`
}

// ParseWarmup parses a -warmup CLI argument shared by cmd/experiments
// and cmd/simsched: a bare integer is a finished-job count; a value
// with an s/m/h suffix is a simulation-time threshold in seconds.
func ParseWarmup(s string) (jobs int, secs int64, err error) {
	s = strings.TrimSpace(s)
	unit := int64(0)
	switch {
	case strings.HasSuffix(s, "h"):
		unit = 3600
	case strings.HasSuffix(s, "m"):
		unit = 60
	case strings.HasSuffix(s, "s"):
		unit = 1
	}
	if unit > 0 {
		v, perr := strconv.ParseFloat(strings.TrimSpace(s[:len(s)-1]), 64)
		// The bounds reject durations whose int64 conversion would
		// overflow (implementation-defined) or truncate to zero — both
		// would silently disable the truncation the user asked for.
		if perr != nil || !(v > 0) || v*float64(unit) >= math.MaxInt64 {
			return 0, 0, fmt.Errorf("-warmup: %q is not a positive duration", s)
		}
		secs = int64(v * float64(unit))
		if secs <= 0 {
			return 0, 0, fmt.Errorf("-warmup: %q is shorter than one second", s)
		}
		return 0, secs, nil
	}
	n, perr := strconv.Atoi(s)
	if perr != nil || n <= 0 {
		return 0, 0, fmt.Errorf("-warmup: %q is neither a job count nor a duration (500, 3600s, 2h)", s)
	}
	return n, 0, nil
}

// collectorOptions materializes the spec for a labelled run.
func (ms MetricsSpec) collectorOptions(scheduler, workload string, procs int) metrics.CollectorOptions {
	return metrics.CollectorOptions{
		Scheduler: scheduler, Workload: workload, Procs: procs,
		Tau:        ms.Tau,
		WarmupJobs: ms.WarmupJobs, CooldownJobs: ms.CooldownJobs,
		WarmupTime: ms.WarmupTime, CooldownTime: ms.CooldownTime,
		Sketch:      ms.Sketch,
		SampleEvery: ms.SampleEvery,
	}
}

// Source names a workload substrate: a statistical model
// ("model:lublin99") or a cleaned real trace ("trace:path.swf").
type Source struct {
	Kind string `json:"kind"` // sourceModel or sourceTrace
	Arg  string `json:"arg"`  // model name or trace path
}

// ParseSource parses the textual source spec Config.Source carries:
// "", "model:<name>", "trace:<path>", or a bare model name.
func ParseSource(s string) Source {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return Source{Kind: sourceModel, Arg: defaultSubstrate}
	case strings.HasPrefix(s, sourceTrace+":"):
		return Source{Kind: sourceTrace, Arg: strings.TrimPrefix(s, sourceTrace+":")}
	case strings.HasPrefix(s, sourceModel+":"):
		return Source{Kind: sourceModel, Arg: strings.TrimPrefix(s, sourceModel+":")}
	default:
		// A bare name reads as a model, the common shorthand.
		return Source{Kind: sourceModel, Arg: s}
	}
}

// String renders the canonical textual form ParseSource accepts.
func (s Source) String() string {
	if s.Kind == "" {
		return s.Arg
	}
	return s.Kind + ":" + s.Arg
}

// SimSpec is the serializable subset of sim.Options. Injected
// in-memory streams (generated outage logs, reservation requests) have
// no file form and ride alongside a RunSpec instead — see Execute's
// extra parameter.
type SimSpec struct {
	// Feedback replays preceding-job/think-time chains (closed loop).
	Feedback bool `json:"feedback,omitempty"`
	// PerfectEstimates lets schedulers see true runtimes.
	PerfectEstimates bool `json:"perfectEstimates,omitempty"`
	// DropKilled abandons outage-killed jobs instead of restarting.
	DropKilled bool `json:"dropKilled,omitempty"`
	// Horizon stops the simulation at this time (0 = run to drain).
	Horizon int64 `json:"horizon,omitempty"`
	// OutagePath loads an outage log (standard outage format) from
	// this file.
	OutagePath string `json:"outagePath,omitempty"`
}

// Options materializes the sim options, loading OutagePath if set.
func (s SimSpec) Options() (sim.Options, error) {
	opts := sim.Options{
		Feedback:         s.Feedback,
		PerfectEstimates: s.PerfectEstimates,
		DropKilled:       s.DropKilled,
		Horizon:          s.Horizon,
	}
	if s.OutagePath != "" {
		olog, err := cachedOutages(s.OutagePath)
		if err != nil {
			return sim.Options{}, err
		}
		opts.Outages = olog
	}
	return opts, nil
}

// outageCache memoizes parsed outage logs by path — the outage-log
// analogue of trace.Cached. The simulator treats the log as read-only
// (it builds its own event timeline), so one parsed log is safely
// shared by every scheduler of a multi-spec run and every cell of a
// battery.
var outageCache sync.Map // path → *outage.Log

func cachedOutages(path string) (*outage.Log, error) {
	if v, ok := outageCache.Load(path); ok {
		return v.(*outage.Log), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runspec: outage log: %w", err)
	}
	defer f.Close()
	olog, err := outage.Read(f)
	if err != nil {
		return nil, fmt.Errorf("runspec: outage log %s: %w", path, err)
	}
	outageCache.Store(path, olog)
	return olog, nil
}

// RunResult is the outcome of one (load point × scheduler) run.
type RunResult struct {
	// Load is the requested offered load (0 = source default).
	Load float64 `json:"load"`
	// Workload describes the substrate the run actually simulated.
	Workload WorkloadInfo `json:"workload"`
	// Report is the full metric battery, streamed through the run's
	// collector (so it honours the RunSpec's MetricsSpec).
	Report metrics.Report `json:"report"`
	// Series is the sampled utilization/queue/backlog time series
	// (nil unless Metrics.SampleEvery was set).
	Series *metrics.TimeSeries `json:"series,omitempty"`
}

// WorkloadInfo identifies the simulated workload.
type WorkloadInfo struct {
	Name        string  `json:"name"`
	Jobs        int     `json:"jobs"`
	Nodes       int     `json:"nodes"`
	OfferedLoad float64 `json:"offeredLoad"`
}

// config translates the RunSpec into the experiment Config vocabulary
// so workload resolution shares one code path with the battery.
func (rs RunSpec) config() Config {
	return Config{
		Seed:   rs.Seed,
		Jobs:   rs.Jobs,
		Nodes:  rs.Nodes,
		Source: rs.Source.String(),
		Rep:    rs.Rep,
	}.withDefaults()
}

// Validate reports whether the RunSpec names a constructible run
// without executing it: the load points are well formed, the scheduler
// builds and the source resolves.
func (rs RunSpec) Validate() error {
	if err := rs.checkLoads(); err != nil {
		return err
	}
	if _, err := sched.Build(rs.Scheduler); err != nil {
		return err
	}
	switch rs.Source.Kind {
	case sourceModel:
		if _, err := registry.New(rs.Source.Arg); err != nil {
			return fmt.Errorf("runspec: workload model %q: %w", rs.Source.Arg, err)
		}
	case sourceTrace:
		if _, err := trace.Cached(rs.Source.Arg); err != nil {
			return fmt.Errorf("runspec: trace %q: %w", rs.Source.Arg, err)
		}
	default:
		return fmt.Errorf("runspec: unknown source kind %q (have %s, %s)",
			rs.Source.Kind, sourceModel, sourceTrace)
	}
	return nil
}

// checkLoads rejects a load point that names no offered load: negative,
// NaN or infinite. 0 means the source's default.
func (rs RunSpec) checkLoads() error {
	for _, l := range rs.Loads {
		if !(l >= 0) || math.IsInf(l, 1) { // !(l >= 0) is true for NaN too
			return fmt.Errorf("runspec: load %v is not a finite offered load >= 0 (0 = source default)", l)
		}
	}
	return nil
}

// Execute resolves and runs the RunSpec: one result per load point
// (or a single default-load run when Loads is empty).
//
// Faithful replays (recorded load, variant 0, open loop) of streamable
// trace files run through the streaming pipeline: the log is never
// materialized, so memory stays bounded by the jobs in flight rather
// than the trace length. The results are identical either way (see
// stream.go).
func Execute(rs RunSpec) ([]RunResult, error) {
	if src, ok := rs.streamSource(); ok {
		return execute(rs, func(float64) (replay, error) { return streamed{src, rs.Jobs}, nil })
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	return execute(rs, func(load float64) (replay, error) {
		w, err := rs.workload(load)
		return materialized{w}, err
	})
}

// ExecuteSource runs the RunSpec against an already-resolved trace
// source (stdin-fed logs have no path for Execute to reopen); the
// RunSpec's own Source field is used only for labeling. Seed and Rep
// default exactly as in Execute, so the same RunSpec resolves to the
// same workload through either entry point.
func ExecuteSource(src *trace.Source, rs RunSpec) ([]RunResult, error) {
	cfg := rs.config()
	return execute(rs, func(load float64) (replay, error) {
		return materialized{src.Workload(trace.Options{
			Load: load, Jobs: rs.Jobs, Variant: cfg.Rep, Seed: cfg.Seed,
		})}, nil
	})
}

// A replay is one load point's workload, resolved and ready to run.
type replay interface {
	// label names the workload and its machine size, which the
	// collector needs before the run.
	label() (name string, nodes int)
	// run simulates the workload and describes what it fed the
	// simulator.
	run(s sched.Scheduler, opts sim.Options) (WorkloadInfo, error)
}

// materialized is a resolved workload, replayed through sim.Run.
type materialized struct{ w *core.Workload }

func (m materialized) label() (string, int) { return m.w.Name, m.w.MaxNodes }

func (m materialized) run(s sched.Scheduler, opts sim.Options) (WorkloadInfo, error) {
	if _, err := sim.Run(m.w, s, opts); err != nil {
		return WorkloadInfo{}, err
	}
	return WorkloadInfo{
		Name: m.w.Name, Jobs: len(m.w.Jobs), Nodes: m.w.MaxNodes,
		OfferedLoad: m.w.OfferedLoad(),
	}, nil
}

// execute runs the spec's load points, each resolved to a replay: each
// run attaches a fresh metrics.Collector as a sim observer, the
// simulator feeds it one completion at a time (and time-series samples
// at the configured cadence), and the RunResult's Report comes from
// the collector — no post-hoc pass over the outcome slice.
func execute(rs RunSpec, resolve func(load float64) (replay, error)) ([]RunResult, error) {
	if err := rs.checkLoads(); err != nil {
		return nil, err
	}
	opts, err := rs.Sim.Options()
	if err != nil {
		return nil, err
	}
	loads := rs.Loads
	if len(loads) == 0 {
		loads = []float64{0}
	}
	out := make([]RunResult, 0, len(loads))
	for _, load := range loads {
		r, err := resolve(load)
		if err != nil {
			return nil, err
		}
		s, err := sched.Build(rs.Scheduler)
		if err != nil {
			return nil, err
		}
		name, nodes := r.label()
		col := metrics.NewCollector(rs.Metrics.collectorOptions(s.Name(), name, nodes))
		runOpts := opts
		runOpts.Observers = []sim.Observer{col}
		runOpts.SampleEvery = rs.Metrics.SampleEvery
		// The collector is the only consumer: skip retaining the
		// per-job outcome slice. Metric state is then three float64s
		// per finished job (exact percentiles), or O(1) total when the
		// spec selects sketch mode — either way far below O(jobs)
		// Outcome structs.
		runOpts.DiscardOutcomes = true
		info, err := r.run(s, runOpts)
		if err != nil {
			return nil, fmt.Errorf("runspec: simulating %s: %w", rs.Scheduler, err)
		}
		out = append(out, RunResult{
			Load:     load,
			Workload: info,
			Report:   col.Report(),
			Series:   col.Series(),
		})
	}
	return out, nil
}

// workload resolves one load point of the spec's source.
func (rs RunSpec) workload(load float64) (*core.Workload, error) {
	cfg := rs.config()
	if rs.Source.Kind == sourceTrace {
		src, err := trace.Cached(rs.Source.Arg)
		if err != nil {
			return nil, err
		}
		// rs.Jobs, not cfg.Jobs: for a trace, 0 means the whole log,
		// and the battery's 5000-job default must not truncate it.
		return src.Workload(trace.Options{
			Load: load, Jobs: rs.Jobs, Variant: cfg.Rep, Seed: cfg.Seed,
		}), nil
	}
	if load == 0 {
		// Model sources have no "recorded" load; use the battery's
		// representative default.
		load = 0.7
	}
	m, err := registry.New(rs.Source.Arg)
	if err != nil {
		return nil, err
	}
	return m.Generate(model.Config{
		MaxNodes: cfg.Nodes, Jobs: cfg.Jobs, Seed: cfg.Seed,
		Load: load, EstimateFactor: 2,
	}), nil
}
