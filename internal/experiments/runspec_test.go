package experiments

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/workload/trace"
)

func TestParseSourceForms(t *testing.T) {
	cases := []struct {
		in   string
		want Source
	}{
		{"", Source{Kind: "model", Arg: "lublin99"}},
		{"model:jann97", Source{Kind: "model", Arg: "jann97"}},
		{"trace:logs/kth.swf", Source{Kind: "trace", Arg: "logs/kth.swf"}},
		{"naive", Source{Kind: "model", Arg: "naive"}},
	}
	for _, c := range cases {
		if got := ParseSource(c.in); got != c.want {
			t.Errorf("ParseSource(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// String round-trips through ParseSource.
		if back := ParseSource(c.want.String()); back != c.want {
			t.Errorf("source %v round-trips to %v", c.want, back)
		}
	}
}

// TestRunSpecJSONRoundTrip: a RunSpec serializes losslessly — the
// acceptance criterion that lets run configurations live in files.
func TestRunSpecJSONRoundTrip(t *testing.T) {
	rs := RunSpec{
		Scheduler: sched.MustParse("easy(reserve=2, window)"),
		Source:    ParseSource("model:lublin99"),
		Jobs:      1200,
		Nodes:     64,
		Seed:      42,
		Rep:       3,
		Loads:     []float64{0.5, 0.7, 0.9},
		Sim: SimSpec{
			Feedback:         true,
			PerfectEstimates: true,
			DropKilled:       true,
			Horizon:          86400,
			OutagePath:       "machine.outages",
		},
		Metrics: MetricsSpec{
			Tau:        60,
			WarmupJobs: 100, CooldownJobs: 50,
			WarmupTime: 3600, CooldownTime: 864000,
			Sketch:      true,
			SampleEvery: 600,
		},
	}
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	// The scheduler rides as its canonical spec string.
	if !strings.Contains(string(data), `"easy(reserve=2, window)"`) {
		t.Fatalf("scheduler not serialized as spec string: %s", data)
	}
	var back RunSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rs) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, rs)
	}
}

func TestRunSpecValidate(t *testing.T) {
	good := RunSpec{Scheduler: sched.MustParse("easy"), Source: ParseSource("model:naive")}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := RunSpec{Scheduler: sched.Spec{Family: "nope"}, Source: ParseSource("")}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown scheduler family accepted")
	}
	badModel := RunSpec{Scheduler: sched.MustParse("easy"), Source: ParseSource("model:nope")}
	if err := badModel.Validate(); err == nil {
		t.Fatal("unknown model accepted")
	}
	badKind := RunSpec{Scheduler: sched.MustParse("easy"), Source: Source{Kind: "ftp", Arg: "x"}}
	if err := badKind.Validate(); err == nil || !strings.Contains(err.Error(), "unknown source kind") {
		t.Fatalf("unknown source kind: %v", err)
	}
}

// TestExecuteRejectsMalformedLoads: a load point that is negative, NaN
// or infinite is an error from Execute and ExecuteSource, for a model
// and a trace source, even behind a good point; 0 keeps meaning the
// source's default.
func TestExecuteRejectsMalformedLoads(t *testing.T) {
	const tracePath = "../workload/trace/testdata/mini.swf"
	src, err := trace.Cached(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	model := RunSpec{Scheduler: sched.MustParse("easy"), Source: ParseSource("model:lublin99"), Jobs: 50}
	fromTrace := RunSpec{Scheduler: sched.MustParse("easy"), Source: ParseSource("trace:" + tracePath)}
	entries := []struct {
		name string
		run  func(RunSpec) ([]RunResult, error)
		rs   RunSpec
	}{
		{"Execute/model", Execute, model},
		{"Execute/trace", Execute, fromTrace},
		{"ExecuteSource", func(rs RunSpec) ([]RunResult, error) { return ExecuteSource(src, rs) }, fromTrace},
	}
	for _, loads := range [][]float64{{-1}, {math.NaN()}, {math.Inf(1)}, {math.Inf(-1)}, {0.7, -0.5}} {
		for _, e := range entries {
			rs := e.rs
			rs.Loads = loads
			if res, err := e.run(rs); err == nil || !strings.Contains(err.Error(), "offered load") {
				t.Errorf("%s, loads %v: err = %v, %d results; want a load error", e.name, loads, err, len(res))
			}
			if err := rs.Validate(); err == nil {
				t.Errorf("Validate accepted loads %v", loads)
			}
		}
	}
	for _, e := range entries {
		rs := e.rs
		rs.Loads = []float64{0, 0.7}
		if res, err := e.run(rs); err != nil || len(res) != 2 {
			t.Errorf("%s, loads %v: err = %v, %d results; want 2", e.name, rs.Loads, err, len(res))
		}
	}
}

func TestExecuteModelSource(t *testing.T) {
	rs := RunSpec{
		Scheduler: sched.MustParse("easy"),
		Source:    ParseSource("model:lublin99"),
		Jobs:      300, Nodes: 32, Seed: 5,
		Loads: []float64{0.6, 0.9},
	}
	results, err := Execute(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want one per load", len(results))
	}
	for _, r := range results {
		if r.Workload.Jobs != 300 || r.Workload.Nodes != 32 {
			t.Fatalf("workload info: %+v", r.Workload)
		}
		if r.Report.Finished != 300 {
			t.Fatalf("finished %d/300 at load %v", r.Report.Finished, r.Load)
		}
	}
	// Determinism: the same RunSpec is the same run.
	again, err := Execute(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results, again) {
		t.Fatal("identical RunSpec produced different results")
	}
}

func TestExecuteTraceSource(t *testing.T) {
	rs := RunSpec{
		Scheduler: sched.MustParse("fcfs"),
		Source:    ParseSource("trace:../workload/trace/testdata/mini.swf"),
	}
	results, err := Execute(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Workload.Jobs == 0 {
		t.Fatal("empty trace workload")
	}
	if results[0].Load != 0 {
		t.Fatal("default load point should be 0 (as recorded)")
	}
}

// TestExecuteMetricsSpec: the RunSpec's metric options reach the
// streaming collector — tau is recorded, warmup truncates, and the
// sampler produces a time series.
func TestExecuteMetricsSpec(t *testing.T) {
	base := RunSpec{
		Scheduler: sched.MustParse("easy"),
		Source:    ParseSource("model:lublin99"),
		Jobs:      300, Nodes: 32, Seed: 5,
		Loads: []float64{0.8},
	}
	plain, err := Execute(base)
	if err != nil {
		t.Fatal(err)
	}
	r0 := plain[0].Report
	if r0.Tau != 10 || r0.Truncated != 0 {
		t.Fatalf("default metrics spec: %+v", r0)
	}
	if plain[0].Series != nil {
		t.Fatal("series without SampleEvery")
	}

	rich := base
	rich.Metrics = MetricsSpec{Tau: 60, WarmupJobs: 50, SampleEvery: 3600}
	got, err := Execute(rich)
	if err != nil {
		t.Fatal(err)
	}
	r := got[0].Report
	if r.Tau != 60 {
		t.Fatalf("tau not recorded: %+v", r)
	}
	if r.Truncated != 50 || r.Finished != r0.Finished-50 {
		t.Fatalf("warmup not applied: truncated %d, finished %d (full run %d)",
			r.Truncated, r.Finished, r0.Finished)
	}
	if got[0].Series == nil || len(got[0].Series.Samples) == 0 || got[0].Series.Interval != 3600 {
		t.Fatalf("series = %+v", got[0].Series)
	}
	// Determinism holds with the enriched pipeline too.
	again, err := Execute(rich)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatal("metrics-spec run not deterministic")
	}
}

func TestParseWarmup(t *testing.T) {
	cases := []struct {
		in   string
		jobs int
		secs int64
		ok   bool
	}{
		{"500", 500, 0, true},
		{" 42 ", 42, 0, true},
		{"3600s", 0, 3600, true},
		{"2h", 0, 7200, true},
		{"1.5h", 0, 5400, true},
		{"30m", 0, 1800, true},
		{"0", 0, 0, false},
		{"-5", 0, 0, false},
		{"abc", 0, 0, false},
		{"-2h", 0, 0, false},
		{"", 0, 0, false},
		{"1e19h", 0, 0, false}, // int64 overflow must error, not wrap
		{"0.5s", 0, 0, false},  // sub-second durations must error, not truncate to 0
	}
	for _, c := range cases {
		jobs, secs, err := ParseWarmup(c.in)
		if (err == nil) != c.ok || jobs != c.jobs || secs != c.secs {
			t.Errorf("ParseWarmup(%q) = (%d, %d, %v), want (%d, %d, ok=%v)",
				c.in, jobs, secs, err, c.jobs, c.secs, c.ok)
		}
	}
}

// TestConfigMetricOptionsReachRunOn: the battery-level -warmup and
// -bsld-tau knobs flow through the shared report funnel.
func TestConfigMetricOptionsReachRunOn(t *testing.T) {
	cfg := QuickConfig()
	w, err := substrateWorkload(cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	def, err := runOn(cfg, w, "easy", sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm := cfg
	warm.Metrics.WarmupJobs = 100
	warm.Metrics.Tau = 3600
	r, err := runOn(warm, w, "easy", sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Truncated != 100 || r.Finished != def.Finished-100 {
		t.Fatalf("warmup not threaded: %+v", r)
	}
	if r.Tau != 3600 || r.BSLD.Mean >= def.BSLD.Mean {
		t.Fatalf("tau=3600 should shrink mean BSLD: %v -> %v", def.BSLD.Mean, r.BSLD.Mean)
	}
}

func TestSchedListFilter(t *testing.T) {
	def := []string{"fcfs", "sjf", "easy", "easy+win"}

	cfg := Config{}
	got, err := cfg.schedList(def)
	if err != nil || !reflect.DeepEqual(got, def) {
		t.Fatalf("no filter: %v, %v", got, err)
	}

	// Canonical matching: "easy(window)" selects the legacy "easy+win".
	cfg = Config{Scheds: []string{"easy(window)", "fcfs"}}
	got, err = cfg.schedList(def)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"fcfs", "easy+win"}) {
		t.Fatalf("filtered: %v", got)
	}

	cfg = Config{Scheds: []string{"gang"}}
	if _, err := cfg.schedList(def); err == nil {
		t.Fatal("empty intersection accepted")
	}
	cfg = Config{Scheds: []string{"not-a-sched"}}
	if _, err := cfg.schedList(def); err == nil {
		t.Fatal("malformed filter accepted")
	}
}

// TestE1HonoursSchedFilter: the restriction reaches the tables.
func TestE1HonoursSchedFilter(t *testing.T) {
	cfg := QuickConfig()
	cfg.Scheds = []string{"easy", "fcfs"}
	r, _ := ByID("E1")
	tables, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if len(tb.Rows) != 2 {
			t.Fatalf("%s rows = %d, want 2 (filtered)", tb.ID, len(tb.Rows))
		}
	}
}
