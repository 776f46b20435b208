package main

// One run of one workload: set-up, a warm-up op, untraced ops for the
// end-to-end metrics, then (with tracing) traced ops for the per-layer
// metrics. Ops run one after another in a single-threaded closed loop:
// the next op starts when the previous one returns.

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"parsched/internal/experiments"
)

// endToEnd and perLayer are the metrics the last line of a run reports,
// with --trace 0 and --trace 1 respectively; BENCHMARK.json names the
// same ones.
var endToEnd = []struct{ name, unit string }{
	{"op_p50_s", "s"},
	{"setup_s", "s"},
	{"alloc_bytes_per_op", "B"},
	{"allocs_per_op", "count"},
	{"rss_mb", "MB"},
}

func perLayer() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	for _, l := range layers {
		out = append(out, struct{ name, unit string }{l + ".cpu_pct", "%"})
	}
	return append(out,
		struct{ name, unit string }{"runtime.gc_cpu_pct", "%"},
		struct{ name, unit string }{"runtime.gc_cycles_per_op", "count"},
		struct{ name, unit string }{"bench.trace_overhead_pct", "%"},
	)
}

const (
	// minOps is the fewest measured ops per phase, however long they take.
	minOps = 3
	// minTracedOps is the fewest traced ops.
	minTracedOps = 2
	// setupBudget bounds how long repeated set-ups may take: set-up runs
	// at least three times and, while this budget lasts, up to
	// maxSetups times, so a millisecond set-up is not timed from three
	// noisy samples.
	setupBudget = 500 * time.Millisecond
	maxSetups   = 51
	setupBatch  = time.Millisecond
)

//go:embed testdata/reference.json
var referenceJSON []byte

// reference maps a workload (with an "@smoke" suffix for smoke sizes)
// to the digest of its op at defaultSeed.
type reference map[string]string

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("testdata/reference.json: %w", err)
	}
	return ref, nil
}

func refKey(name string, smoke bool) string {
	if smoke {
		return name + "@smoke"
	}
	return name
}

type metric struct {
	name  string
	value float64
	unit  string
}

// runResult is what one run measured and checked.
type runResult struct {
	workload          string
	attempted, failed int
	errs              []string
	metrics           []metric
}

func (r *runResult) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *runResult) value(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// errorRate is the share of attempted ops that failed: returned an
// error, broke an invariant, or produced an unexpected digest.
func (r *runResult) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

func (r *runResult) correct() bool { return r.attempted > 0 && r.failed == 0 }

// runOptions select the measurement of one run.
type runOptions struct {
	runConfig
	budget time.Duration // measured time, split between phases when traced
	trace  bool
	ref    reference
}

// measure runs one workload and returns everything it measured. An
// error means the run could not be measured at all.
func measure(name string, o runOptions) (*runResult, error) {
	sp, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w, err := sp.new(o.runConfig)
	if err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", name, err)
	}
	defer w.close()

	// A set-up shorter than setupBatch is timed over a batch of repeats,
	// so the cache the collection before each sample leaves cold does not
	// decide a microsecond measurement.
	var setups []float64
	repeats := 1
	for spent := time.Duration(0); len(setups) < 3 || (spent < setupBudget && len(setups) < maxSetups); {
		runtime.GC() // drop the previous set-up's inputs
		t0 := time.Now()
		for i := 0; i < repeats; i++ {
			if err := w.setup(); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", name, err)
			}
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds()/float64(repeats))
		if len(setups) == 1 && d < setupBatch {
			repeats = int(setupBatch / max(d, time.Microsecond))
		}
	}

	r := &runResult{workload: name}
	// At the default seed every op must match the committed reference;
	// elsewhere (and for the battery, which checks its golden itself)
	// every op must reproduce the warm-up op.
	want := ""
	if o.seed == defaultSeed {
		want = o.ref[refKey(name, o.smoke)]
	}
	check := func(out output, err error) {
		r.attempted++
		var d string
		if err == nil {
			d, err = out.digest()
		}
		if err == nil && want != "" && d != want {
			err = fmt.Errorf("digest %.12s, want %.12s", d, want)
		}
		if err != nil {
			r.failed++
			if len(r.errs) < 5 {
				r.errs = append(r.errs, err.Error())
			}
			return
		}
		if want == "" {
			want = d
		}
	}

	out, _, err := timedOp(w, nil)
	check(out, err)

	budget := o.budget
	if o.trace {
		budget /= 2
	}
	var times []float64
	var allocBytes, allocs uint64
	var rss float64
	for deadline := time.Now().Add(budget); len(times) < minOps || time.Now().Before(deadline); {
		out, c, err := timedOp(w, nil)
		check(out, err)
		times = append(times, c.d.Seconds())
		allocBytes += c.bytes
		allocs += c.allocs
		v, err := residentMB()
		if err != nil {
			return nil, err
		}
		rss = math.Max(rss, v)
	}
	ops := float64(len(times))
	r.add("op_p50_s", quantile(times, 0.5), "s")
	if len(times) >= 100 {
		// Only with ten samples beyond it.
		r.add("op_p90_s", quantile(times, 0.9), "s")
	}
	r.add("setup_s", quantile(setups, 0.5), "s")
	r.add("alloc_bytes_per_op", float64(allocBytes)/ops, "B")
	r.add("allocs_per_op", float64(allocs)/ops, "count")
	r.add("rss_mb", rss, "MB")
	r.add("ops", ops, "count")
	if n := w.jobsPerOp(); n > 0 {
		r.add("jobs_per_s", float64(n)/quantile(times, 0.5), "1/s")
	}
	if !o.trace {
		return r, nil
	}

	tr := newTracer()
	var traced []float64
	var wall time.Duration
	gc0 := readGC()
	cpu, err := profileLayers(func() {
		for deadline := time.Now().Add(budget); len(traced) < minTracedOps || time.Now().Before(deadline); {
			out, c, err := timedOp(w, tr)
			check(out, err)
			traced = append(traced, c.d.Seconds())
			wall += c.d
			tr.ops++
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s: traced phase: %w", name, err)
	}
	gc1 := readGC()
	var cpuTotal int64
	for _, ns := range cpu {
		cpuTotal += ns
	}
	for i, l := range layers {
		r.add(l+".cpu_pct", 100*ratio(float64(cpu[i]), float64(cpuTotal)), "%")
	}
	// The runtime updates its CPU classes at collections only.
	r.add("runtime.gc_cpu_pct", 100*ratio(gc1.gcCPU-gc0.gcCPU, gc1.busyCPU-gc0.busyCPU), "%")
	r.add("runtime.gc_cycles_per_op", float64(gc1.cycles-gc0.cycles)/float64(len(traced)), "count")
	r.add("bench.trace_overhead_pct", 100*(quantile(traced, 0.5)/quantile(times, 0.5)-1), "%")
	r.add("bench.traced_op_p50_s", quantile(traced, 0.5), "s")
	r.add(sp.setupLayer, quantile(setups, 0.5), "s")
	r.metrics = append(r.metrics, tr.layerMetrics(wall)...)
	if l, ok := w.(interface{ ladder() ([]metric, error) }); ok {
		m, err := l.ladder()
		if err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", name, err)
		}
		r.metrics = append(r.metrics, m...)
	}
	return r, nil
}

type opCost struct {
	d             time.Duration
	bytes, allocs uint64
}

// timedOp runs one op; only the op itself is inside the clock and the
// allocation counters.
func timedOp(w workload, tr *tracer) (output, opCost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	out, err := w.op(tr)
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return out, opCost{d, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs}, err
}

type gcSample struct {
	gcCPU, busyCPU float64
	cycles         uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcSample{
		gcCPU:   s[0].Value.Float64(),
		busyCPU: s[1].Value.Float64() - s[2].Value.Float64(),
		cycles:  s[3].Value.Uint64(),
	}
}

// residentMB reads the process's resident set size. Sampled after
// every measured op, its maximum is the memory the ops hold. The
// high-water mark would be the true peak, but it also covers set-up and
// the warm-up op, and it moves with garbage-collection timing: its
// spread across runs was up to 28%, against about 5% for this sample.
func residentMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmRSS:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}

// layerMetrics turns the traced spans into per-op layer numbers. wall
// is the traced ops' total wall time.
func (t *tracer) layerMetrics(wall time.Duration) []metric {
	var m []metric
	add := func(name string, v float64, unit string) { m = append(m, metric{name, v, unit}) }
	if t.cells != nil {
		for i, r := range experiments.All() {
			add("experiments."+r.ID+"_s", t.cells[i].Seconds()/float64(t.ops), "s")
		}
		return m
	}
	a := &t.aggs
	ops, jobs, sec := float64(t.ops), float64(t.jobs), 1e-9
	calls := a[spanSubmit].count + a[spanFinish].count + a[spanChange].count
	busy := a[spanSubmit].total + a[spanFinish].total + a[spanChange].total
	schedSelf := busy - a[spanStart].total
	if a[spanNext].count > 0 {
		add("trace.next_ns_per_job", float64(a[spanNext].total)/jobs, "ns")
	}
	add("sched.calls", float64(calls)/ops, "count")
	add("sched.busy_s", float64(busy)*sec/ops, "s")
	add("sched.self_s", float64(schedSelf)*sec/ops, "s")
	for _, k := range []struct {
		kind spanKind
		name string
	}{{spanSubmit, "submit"}, {spanFinish, "finish"}, {spanChange, "change"}} {
		if a[k.kind].count > 0 {
			add("sched."+k.name+"_ns_p50", a[k.kind].quantile(0.5), "ns")
			add("sched."+k.name+"_ns_p99", a[k.kind].quantile(0.99), "ns")
		}
	}
	add("sched.fruitless_frac", float64(t.fruitless)/float64(calls), "frac")
	add("sched.starts_per_job", float64(t.starts)/jobs, "count")
	add("sched.can_start_per_call", float64(t.canStart)/float64(calls), "count")
	add("sched.running_reads_per_call", float64(t.runningReads)/float64(calls), "count")
	add("sim.start_ns_p50", a[spanStart].quantile(0.5), "ns")
	add("sim.start_s", float64(a[spanStart].total)*sec/ops, "s")
	add("sim.self_s", float64(a[spanRun].self)*sec/ops, "s")
	add("sim.self_ns_per_event", float64(a[spanRun].self)/float64(t.events), "ns")
	add("des.events_per_job", float64(t.events)/jobs, "count")
	add("metrics.observe_ns_per_job", float64(a[spanObserve].total)/jobs, "ns")
	add("metrics.report_ms", float64(a[spanReport].total)*1e-6/ops, "ms")
	covered := a[spanRun].total + a[spanReport].total
	add("bench.span_coverage_pct", 100*float64(covered)/float64(wall), "%")
	return m
}

// ratio is a/b, or 0 when b is: a traced phase shorter than the
// profiler's 10 ms period holds no samples, and one without a
// collection moves no GC counters.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// print writes every metric as a "workload metric value unit" line,
// then the run's result as the last line: a JSON object holding the
// end-to-end metrics, or with tracing the per-layer ones.
func (r *runResult) print(w io.Writer, traced bool) error {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	fmt.Fprintf(w, "%s error_rate %s frac\n", r.workload, strconv.FormatFloat(r.errorRate(), 'g', -1, 64))
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "%s: op failed: %s\n", r.workload, e)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := endToEnd
	if traced {
		names = perLayer()
	}
	ms := make(map[string]jsonMetric, len(names))
	for _, n := range names {
		m, ok := r.value(n.name)
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, n.name)
		}
		ms[n.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
