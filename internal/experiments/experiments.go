// Package experiments implements the paper's evaluation programme as
// ten numbered, reproducible experiments (E1–E10), each mapped in
// DESIGN.md to the section of the paper that motivates it. Every
// experiment returns formatted tables; cmd/experiments prints them and
// EXPERIMENTS.md records the measured results against the paper's
// qualitative claims.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"parsched/internal/core"
	"parsched/internal/metrics"
	"parsched/internal/model"
	"parsched/internal/model/lublin"
	"parsched/internal/model/registry"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/workload/trace"
)

// Config scales the experiments. Quick shrinks workloads so the whole
// battery runs in seconds (used by tests and benchmarks); the default
// sizes match the tables recorded in EXPERIMENTS.md.
type Config struct {
	Seed  int64
	Jobs  int
	Nodes int
	Quick bool

	// Source selects the workload substrate the battery runs on:
	//
	//	""                 the per-experiment defaults (lublin99 et al.)
	//	"model:<name>"     a named statistical model as the substrate
	//	"trace:<path>"     a real SWF log, cleaned, rescaled to each
	//	                   experiment's load points, and resampled per
	//	                   replication (internal/workload/trace)
	//
	// With a trace source, Nodes follows the trace's machine size and
	// Jobs truncates the trace (0 or larger than the log = all jobs).
	Source string
	// Loads overrides the experiments' load points (-scale-load):
	// load sweeps run at exactly these values; experiments pinned to a
	// single load run at the override closest to their default. Empty
	// keeps the defaults, byte-identically.
	Loads []float64
	// Rep is the replication index of this run (0-based). The batch
	// layer sets it alongside the derived seed; trace sources replay
	// rep 0 faithfully and resample arrivals for rep > 0. Model
	// sources ignore it (the derived seed already varies).
	Rep int
	// Scheds restricts which schedulers the comparison experiments
	// (E1–E3, E5, E6) run, as spec strings in the internal/sched
	// grammar. Specs are matched canonically, so "easy(window)"
	// selects the default list's "easy+win". Empty runs every default
	// scheduler, byte-identically. A filter that empties an
	// experiment's list is an error — a comparison with no subjects is
	// not a run.
	Scheds []string
	// Metrics configures the collector every experiment reports
	// through: tau override (-bsld-tau), warmup/cooldown truncation
	// (-warmup), sketch mode. The zero value keeps full-population
	// default-tau measurement, byte-identically.
	Metrics MetricsSpec
	// Percentiles adds wait-percentile columns (P50/P99) to the
	// scheduler-comparison tables (-percentiles). Off keeps classic
	// output byte-identical.
	Percentiles bool
}

// Default returns the EXPERIMENTS.md configuration. Its seed is the
// committed default: the suite's published tables are produced from
// this exact seed.
func Default() Config { return Config{Seed: 1999, Jobs: 5000, Nodes: 128} }

// QuickConfig returns a seconds-scale configuration at the committed
// default seed, which the battery golden is produced from.
func QuickConfig() Config { return Config{Seed: 1999, Jobs: 600, Nodes: 64, Quick: true} }

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1999 // the committed default seed the published tables are produced from
	}
	if c.Jobs == 0 {
		c.Jobs = 5000
	}
	if c.Nodes == 0 {
		c.Nodes = 128
	}
	// A trace substrate dictates the machine size: experiment tables,
	// outage streams, and grids must all describe the traced machine,
	// not the synthetic default. Unreadable paths are left alone here;
	// the error surfaces from genWorkload with context.
	if kind, arg := c.sourceSpec(); kind == sourceTrace {
		if src, err := trace.Cached(arg); err == nil {
			c.Nodes = src.MaxNodes()
		}
	}
	return c
}

// Workload-source spec kinds (Config.Source).
const (
	sourceModel = "model"
	sourceTrace = "trace"
)

// defaultSubstrate is the model the paper calls relatively
// representative, used wherever an experiment needs "the" workload.
const defaultSubstrate = "lublin99"

// sourceSpec parses Config.Source into (kind, argument).
func (c Config) sourceSpec() (kind, arg string) {
	src := ParseSource(c.Source)
	return src.Kind, src.Arg
}

// schedList applies the -sched restriction to an experiment's default
// scheduler list. Specs are compared canonically (parsed through the
// spec grammar), so any legal spelling of a scheduler matches it.
func (c Config) schedList(def []string) ([]string, error) {
	if len(c.Scheds) == 0 {
		return def, nil
	}
	allowed := map[string]bool{}
	for _, s := range c.Scheds {
		sp, err := sched.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("experiments: -sched filter: %w", err)
		}
		// Parse alone admits specs whose factory rejects the values
		// (easy(reserve=0)); building surfaces the real diagnosis
		// instead of a misleading empty-filter error below.
		if _, err := sched.Build(sp); err != nil {
			return nil, fmt.Errorf("experiments: -sched filter: %w", err)
		}
		allowed[sp.String()] = true
	}
	var out []string
	for _, name := range def {
		sp, err := sched.Parse(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: default scheduler %q: %w", name, err)
		}
		if allowed[sp.String()] {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: scheduler filter %v excludes every scheduler of this experiment (%v)",
			c.Scheds, def)
	}
	return out, nil
}

// traceSource resolves the trace behind a trace-kind Source.
func (c Config) traceSource() (*trace.Source, error) {
	kind, arg := c.sourceSpec()
	if kind != sourceTrace {
		return nil, fmt.Errorf("experiments: source %q is not a trace", c.Source)
	}
	src, err := trace.Cached(arg)
	if err != nil {
		return nil, fmt.Errorf("experiments: workload source %q: %w", c.Source, err)
	}
	return src, nil
}

// sweepLoads returns an experiment's load sweep, honouring a -scale-load
// override. With no override the defaults pass through untouched, which
// keeps classic output byte-identical.
func (c Config) sweepLoads(def []float64) []float64 {
	if len(c.Loads) == 0 {
		return def
	}
	return append([]float64(nil), c.Loads...)
}

// fixedLoad returns the load of a single-load experiment: the default,
// or — under a -scale-load override — the override value closest to it,
// so every requested load point is exercised by the experiments whose
// regime it best matches.
func (c Config) fixedLoad(def float64) float64 {
	if len(c.Loads) == 0 {
		return def
	}
	best := c.Loads[0]
	for _, l := range c.Loads[1:] {
		if math.Abs(l-def) < math.Abs(best-def) {
			best = l
		}
	}
	return best
}

// Metric is one typed observation behind the formatted cells: a named
// value under a label set (e.g. {sched: easy, model: lublin99} →
// meanWait = 5362). Metrics are what the batch layer aggregates across
// replications and what -json/-csv export; the formatted rows remain
// the human-readable view.
type Metric struct {
	Labels map[string]string `json:"labels,omitempty"`
	Name   string            `json:"name"`
	Value  float64           `json:"value"`
}

// LabelKey renders the label set in sorted k=v form, the stable
// grouping key used by replication aggregation and CSV export.
func (m Metric) LabelKey() string {
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m.Labels[k])
	}
	return b.String()
}

// Table is one experiment output table.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	Metrics []Metric   `json:"metrics,omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Observe records typed metric values under a shared label set — the
// machine-readable counterpart of a formatted row. Names are appended
// in sorted order so the metric stream is deterministic.
func (t *Table) Observe(labels map[string]string, values map[string]float64) {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.Metrics = append(t.Metrics, Metric{Labels: labels, Name: n, Value: values[n]})
	}
}

// Note appends a free-text note under the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is one experiment. Run returns the experiment's tables (each
// carrying typed metric rows) or an error; a failing experiment must
// report, not panic, so one bad cell cannot kill a parallel battery.
type Runner struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]Table, error)
}

// All returns the experiment battery in order.
func All() []Runner {
	return []Runner{
		{"E1", "Scheduler comparison across workload models", E1SchedulerComparison},
		{"E2", "Metric conflicts between response time and slowdown", E2MetricConflict},
		{"E3", "Objective-weight sensitivity of scheduler rankings", E3ObjectiveWeights},
		{"E4", "Open-loop versus closed-loop (feedback) evaluation", E4Feedback},
		{"E5", "Outage impact and outage-aware scheduling", E5Outages},
		{"E6", "Advance reservations versus backfilling", E6Reservations},
		{"E7", "Queue-wait prediction accuracy and meta-scheduling gain", E7Prediction},
		{"E8", "Co-allocation across machine schedulers", E8CoAllocation},
		{"E9", "Workload model fidelity (co-plot analogue)", E9ModelFidelity},
		{"E10", "WARMstones scoreboard and fidelity agreement", E10Warmstones},
	}
}

// ByID returns a single experiment runner.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

// ---------------------------------------------------------------------
// shared helpers

// genWorkload produces a workload at the given offered load. When the
// configuration selects a trace source, the trace is the substrate
// regardless of name (rescaled to the load, truncated to cfg.Jobs,
// resampled for replications > 0); otherwise name picks a statistical
// model. A bad name or path is reported, not panicked, so the error
// flows through the Runner result path instead of killing a battery.
func genWorkload(name string, cfg Config, load float64) (*core.Workload, error) {
	if kind, _ := cfg.sourceSpec(); kind == sourceTrace {
		src, err := cfg.traceSource()
		if err != nil {
			return nil, err
		}
		return src.Workload(trace.Options{
			Load: load, Jobs: cfg.Jobs, Variant: cfg.Rep, Seed: cfg.Seed,
		}), nil
	}
	m, err := registry.New(name)
	if err != nil {
		return nil, fmt.Errorf("workload model %q: %w", name, err)
	}
	return m.Generate(model.Config{
		MaxNodes: cfg.Nodes, Jobs: cfg.Jobs, Seed: cfg.Seed,
		Load: load, EstimateFactor: 2,
	}), nil
}

// substrateWorkload is "the" workload of an experiment: the configured
// trace when one is selected, else the substrate model named by the
// source spec (lublin99 by default — the model the paper calls
// relatively representative).
func substrateWorkload(cfg Config, load float64) (*core.Workload, error) {
	kind, arg := cfg.sourceSpec()
	if kind == sourceTrace {
		return genWorkload("", cfg, load)
	}
	if arg == defaultSubstrate {
		// Keep the exact lublin.Default() path (not the registry) so
		// classic output stays byte-identical.
		return lublin.Default().Generate(model.Config{
			MaxNodes: cfg.Nodes, Jobs: cfg.Jobs, Seed: cfg.Seed,
			Load: load, EstimateFactor: 2,
		}), nil
	}
	return genWorkload(arg, cfg, load)
}

// siteWorkload builds the local workload of grid site `site` and
// returns it with the site's machine size. Model substrates derive a
// per-site model workload on `nodes`; a trace substrate derives a
// per-site resampled variant of the trace (variants are offset so that
// sites differ from each other and from the main workload) on the
// traced machine — a trace cannot be re-fit to a half-size machine.
func siteWorkload(cfg Config, site, jobs, nodes int, load float64) (*core.Workload, int, error) {
	if kind, _ := cfg.sourceSpec(); kind == sourceTrace {
		src, err := cfg.traceSource()
		if err != nil {
			return nil, 0, err
		}
		w := src.Workload(trace.Options{
			Load: load, Jobs: jobs, Variant: site + 1, Seed: cfg.Seed,
		})
		w.Name = fmt.Sprintf("local-%d", site)
		return w, src.MaxNodes(), nil
	}
	w := lublin.Default().Generate(model.Config{
		MaxNodes: nodes, Jobs: jobs, Seed: cfg.Seed + int64(site),
		Load: load, EstimateFactor: 2,
	})
	w.Name = fmt.Sprintf("local-%d", site)
	return w, nodes, nil
}

// noteLoadShortfall records when a trace substrate could not reach the
// requested offered load: interarrival compression is bounded by the
// trace's runtime tail, so overload targets (e.g. E4's 1.1/1.3 sweep)
// may be unreachable. Without the note, the table's load axis would
// silently claim a regime the simulation never ran in. Model
// substrates calibrate generatively and need no note.
func noteLoadShortfall(t *Table, cfg Config, w *core.Workload, requested float64) {
	if requested <= 0 {
		return
	}
	if kind, _ := cfg.sourceSpec(); kind != sourceTrace {
		return
	}
	if got := w.OfferedLoad(); math.Abs(got-requested) > 0.05*requested {
		t.Note("trace substrate reached offered load %.3f of requested %.2f (runtime tail bounds interarrival compression)", got, requested)
	}
}

// substrateLabel names the substrate in table titles and metric labels.
func substrateLabel(cfg Config) string {
	kind, arg := cfg.sourceSpec()
	if kind == sourceTrace {
		if src, err := trace.Cached(arg); err == nil {
			return src.Name
		}
		return arg
	}
	return arg
}

// report aggregates outcomes under the configuration's metric options
// (tau override, warmup truncation) — the one funnel every experiment
// uses so a -warmup or -bsld-tau flag reaches all of them. The
// MetricsSpec→CollectorOptions mapping is shared with RunSpec
// execution, so the battery and the RunSpec path cannot drift.
//
// Count-based warmup/cooldown is defined over completion order ("the
// first/last K jobs to finish"), matching what a live collector fed by
// the simulator sees; retained outcome slices arrive in submission
// order, so they are re-sorted by completion before feeding whenever
// such a policy is active. Time-based truncation is order-independent.
func (c Config) report(scheduler, workload string, outs []metrics.Outcome, procs int) metrics.Report {
	if c.Metrics.WarmupJobs > 0 || c.Metrics.CooldownJobs > 0 {
		sorted := append([]metrics.Outcome(nil), outs...)
		sort.SliceStable(sorted, func(a, b int) bool {
			ea, eb := sorted[a].End, sorted[b].End
			if ea != eb {
				return ea < eb
			}
			return sorted[a].JobID < sorted[b].JobID
		})
		outs = sorted
	}
	return metrics.ComputeWith(outs, c.Metrics.collectorOptions(scheduler, workload, procs))
}

// runOn simulates a workload under a scheduler named by a spec string
// (or legacy name) in the internal/sched grammar — the in-memory form
// of a RunSpec whose workload is already resolved. The report honours
// the configuration's metric options.
func runOn(cfg Config, w *core.Workload, schedName string, opts sim.Options) (metrics.Report, error) {
	s, err := sched.New(schedName)
	if err != nil {
		return metrics.Report{}, fmt.Errorf("scheduler %q: %w", schedName, err)
	}
	res, err := sim.Run(w, s, opts)
	if err != nil {
		return metrics.Report{}, fmt.Errorf("simulating %q: %w", schedName, err)
	}
	return cfg.report(res.Scheduler, res.Workload, res.Outcomes, w.MaxNodes), nil
}

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.2f", v) }

// f0 formats a float with no decimals.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

// f3 formats a float with 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// rankOf converts scores (lower better) to a rank list of names.
func rankOf(names []string, scores []float64) []string {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] < scores[idx[b]]
		}
		return names[idx[a]] < names[idx[b]]
	})
	out := make([]string, len(idx))
	for i, k := range idx {
		out[i] = names[k]
	}
	return out
}
