package trace

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parsched/internal/core"
	"parsched/internal/metrics"
	"parsched/internal/outage"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/stats"
	"parsched/internal/swf"
)

// streamableFixture writes the cleaned form of mini.swf to a temp file:
// sorted, rebased, renumbered — the shape archive ".cln.swf" files ship
// in, and the shape the streaming pipeline accepts.
func streamableFixture(t *testing.T) string {
	t.Helper()
	log, err := swf.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := swf.Clean(log)
	path := filepath.Join(t.TempDir(), "mini.cln.swf")
	if err := swf.WriteFile(path, clean); err != nil {
		t.Fatal(err)
	}
	return path
}

func openBoth(t *testing.T, path string) (*Source, *StreamSource) {
	t.Helper()
	src, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ss, err := OpenStream(path)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if !ss.Streamable() {
		t.Fatalf("cleaned fixture must be streamable; stats %+v", ss.Stats)
	}
	return src, ss
}

// drain pulls every job off a stream.
func drain(t *testing.T, js core.JobStream) []*core.Job {
	t.Helper()
	var out []*core.Job
	for {
		j, err := js.Next()
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if j == nil {
			return out
		}
		out = append(out, j)
	}
}

func TestStreamedJobsAreByteIdenticalToMaterialized(t *testing.T) {
	path := streamableFixture(t)
	src, ss := openBoth(t, path)

	for _, limit := range []int{0, 1, 10, 10000} {
		want := src.Workload(Options{Jobs: limit}).Jobs
		jr, err := ss.Stream(limit)
		if err != nil {
			t.Fatalf("Stream(%d): %v", limit, err)
		}
		got := drain(t, jr)
		jr.Close()
		if len(got) != len(want) {
			t.Fatalf("limit %d: streamed %d jobs, materialized %d", limit, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(*got[i], *want[i]) {
				t.Fatalf("limit %d: job %d differs:\nstream      %+v\nmaterialize %+v",
					limit, i, *got[i], *want[i])
			}
		}
	}
}

func TestStreamSourceAgreesWithSource(t *testing.T) {
	path := streamableFixture(t)
	src, ss := openBoth(t, path)

	if ss.Name != src.Name {
		t.Fatalf("Name: %q vs %q", ss.Name, src.Name)
	}
	if ss.JobCount() != src.JobCount() {
		t.Fatalf("JobCount: %d vs %d", ss.JobCount(), src.JobCount())
	}
	if ss.MaxNodes() != src.MaxNodes() {
		t.Fatalf("MaxNodes: %d vs %d", ss.MaxNodes(), src.MaxNodes())
	}
	if d := math.Abs(ss.OfferedLoad() - src.OfferedLoad()); d > 1e-12 {
		t.Fatalf("OfferedLoad: %g vs %g", ss.OfferedLoad(), src.OfferedLoad())
	}
	// The statistics pass must reproduce the clean report the
	// materialized open computes (the cleaned fixture re-cleans as a
	// near-identity, so most counters are zero — the point is they are
	// the SAME zeros and the same totals).
	if ss.Stats.Report != src.Report {
		t.Fatalf("CleanReport diverges:\nstream      %+v\nmaterialize %+v", ss.Stats.Report, src.Report)
	}
	if ss.Stats.DroppedNoSubmit != src.DroppedNoSubmit {
		t.Fatalf("DroppedNoSubmit: %d vs %d", ss.Stats.DroppedNoSubmit, src.DroppedNoSubmit)
	}
}

func TestStreamRefusesRescaledOrResampledShapes(t *testing.T) {
	// The raw (unsorted) fixture must be rejected at the source level.
	ss, err := OpenStream(fixture)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if ss.Streamable() {
		t.Fatal("raw mini.swf is unsorted; must not be streamable")
	}
	if _, err := ss.Stream(0); err == nil {
		t.Fatal("Stream on a non-streamable source must error")
	}
}

// replayRun is one side of a materialized-vs-streamed replay.
type replayRun struct {
	rep    metrics.Report
	series *metrics.TimeSeries
	res    *sim.Result
}

// runBoth replays the fixture through scheduler spec both ways.
func runBoth(t *testing.T, path, spec string, opts sim.Options) (mat, str replayRun) {
	t.Helper()
	src, ss := openBoth(t, path)

	s1, err := sched.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := src.Workload(Options{})
	col1 := metrics.NewCollector(metrics.CollectorOptions{
		Scheduler: s1.Name(), Workload: w.Name, Procs: w.MaxNodes})
	o1 := opts
	o1.Observers = []sim.Observer{col1}
	o1.DiscardOutcomes = true
	res1, err := sim.Run(w, s1, o1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	s2, err := sched.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	col2 := metrics.NewCollector(metrics.CollectorOptions{
		Scheduler: s2.Name(), Workload: ss.Name, Procs: ss.MaxNodes()})
	o2 := opts
	o2.Observers = []sim.Observer{col2}
	o2.DiscardOutcomes = true
	jr, err := ss.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	res2, err := sim.RunStream(ss.Name, ss.MaxNodes(), jr, s2, o2)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	return replayRun{col1.Report(), col1.Series(), res1}, replayRun{col2.Report(), col2.Series(), res2}
}

// injectedStreams builds an outage log (failures plus announced
// maintenance), two advance reservations and a sampling cadence over
// the span of w, so a replay exercises every stream the simulator
// wires besides arrivals.
func injectedStreams(w *core.Workload) sim.Options {
	span := w.Span()
	return sim.Options{
		Outages: outage.Generate(outage.GeneratorConfig{
			Nodes: int64(w.MaxNodes), Horizon: span,
			MTBF:              stats.Exponential{Lambda: 8 / float64(span)},
			Repair:            stats.Constant{C: 1800},
			MaintenanceEvery:  span / 3,
			MaintenanceLength: 3600,
			MaintenanceLead:   86400,
		}, 5),
		Reservations: []sched.Reservation{
			{ID: 1, Procs: max(1, w.MaxNodes/4), Start: span / 4, End: span/4 + 7200, Announced: span/4 - 86400},
			{ID: 2, Procs: max(1, w.MaxNodes/2), Start: span / 2, End: span/2 + 3600},
		},
		SampleEvery: 3600,
	}
}

func TestRunStreamMatchesRun(t *testing.T) {
	path := streamableFixture(t)
	src, _ := openBoth(t, path)
	cases := []struct {
		name, spec string
		opts       sim.Options
	}{
		{"easy", "easy", sim.Options{}},
		{"cons", "cons", sim.Options{}},
		{"fcfs", "fcfs", sim.Options{}},
		{"outages+reservations+sampling", "cons(window)", injectedStreams(src.Workload(Options{}))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mat, str := runBoth(t, path, c.spec, c.opts)
			if !reflect.DeepEqual(mat.rep, str.rep) {
				t.Fatalf("reports diverge:\nmaterialized %+v\nstreamed     %+v", mat.rep, str.rep)
			}
			if mat.res.Events != str.res.Events {
				t.Fatalf("event counts diverge: %d vs %d", mat.res.Events, str.res.Events)
			}
			if !reflect.DeepEqual(mat.res.Reservations, str.res.Reservations) {
				t.Fatalf("reservation outcomes diverge:\nmaterialized %+v\nstreamed     %+v", mat.res.Reservations, str.res.Reservations)
			}
			if !reflect.DeepEqual(mat.series, str.series) {
				t.Fatal("sampled time series diverge")
			}
			if len(mat.res.Reservations) != len(c.opts.Reservations) || (c.opts.SampleEvery > 0) != (mat.series != nil) {
				t.Fatalf("injected streams missing: %d reservation outcomes, series %v", len(mat.res.Reservations), mat.series != nil)
			}
		})
	}
}

func TestRunStreamMatchesRunUnderHorizon(t *testing.T) {
	path := streamableFixture(t)
	// A horizon that cuts the replay mid-flight exercises the residual
	// flush and the never-submitted tail accounting.
	mat, str := runBoth(t, path, "easy", sim.Options{Horizon: 200000})
	if !reflect.DeepEqual(mat.rep, str.rep) {
		t.Fatalf("horizon reports diverge:\nmaterialized %+v\nstreamed     %+v", mat.rep, str.rep)
	}
	if mat.res.NeverSubmitted != str.res.NeverSubmitted {
		t.Fatalf("never submitted: %d vs %d", mat.res.NeverSubmitted, str.res.NeverSubmitted)
	}
}

func TestRunStreamRejectsFeedback(t *testing.T) {
	if _, err := sim.RunStream("x", 4, core.NewSliceStream(nil), sched.NewFCFS(), sim.Options{Feedback: true}); err == nil {
		t.Fatal("RunStream must reject feedback mode")
	}
}

func TestCachedKeysByAbsolutePath(t *testing.T) {
	// "testdata/mini.swf" and its absolute form must share one entry.
	s1, err := Cached(fixture)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(fixture)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Cached(abs)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("relative and absolute paths loaded separate Sources")
	}
	if _, err := os.Stat(abs); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadTruncatesBeforeCloning(t *testing.T) {
	src := openFixture(t)
	w := src.Workload(Options{Jobs: 5})
	if len(w.Jobs) != 5 {
		t.Fatalf("got %d jobs, want 5", len(w.Jobs))
	}
	// Equivalent to the old clone-then-truncate order.
	full := src.Workload(Options{})
	full.Truncate(5)
	for i := range w.Jobs {
		if !reflect.DeepEqual(*w.Jobs[i], *full.Jobs[i]) {
			t.Fatalf("job %d differs from clone-then-truncate: %+v vs %+v", i, *w.Jobs[i], *full.Jobs[i])
		}
	}
}
