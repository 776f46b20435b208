package main

// The harness's self-test, run with `go test` in this directory. It runs
// every workload at smoke size and checks the harness itself: a wrong
// reference digest must fail the run, traced ops must reproduce
// untraced ones, the context wrapper must expose exactly the inner
// context's epochs, and BENCHMARK.json must name what the harness
// reports.

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"parsched/internal/des"
	"parsched/internal/sched"
	"parsched/internal/sim"
)

func smokeRun(t *testing.T, seed int64, ref reference, traced bool) runOptions {
	return runOptions{
		runConfig: runConfig{seed: seed, smoke: true, root: "..", scratch: t.TempDir()},
		trace:     traced, // a zero budget runs the minimum op counts
		ref:       ref,
	}
}

func TestSmokeWorkloads(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		for _, seed := range []int64{defaultSeed, 7} {
			for _, traced := range []bool{false, true} {
				r, err := measure(sp.name, smokeRun(t, seed, ref, traced))
				if err != nil {
					t.Fatalf("%s seed %d: %v", sp.name, seed, err)
				}
				if !r.correct() {
					t.Errorf("%s seed %d traced=%v: %d of %d ops failed: %v", sp.name, seed, traced, r.failed, r.attempted, r.errs)
				}
				var out bytes.Buffer
				if err := r.print(&out, traced); err != nil {
					t.Errorf("%s: %v", sp.name, err)
				}
			}
		}
	}
}

func TestReferenceCoversWorkloads(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if sp.name == "battery-quick" {
			continue // checked against its golden
		}
		for _, smoke := range []bool{false, true} {
			if len(ref[refKey(sp.name, smoke)]) != 64 {
				t.Errorf("testdata/reference.json lacks %s; run -update-reference", refKey(sp.name, smoke))
			}
		}
	}
}

// A tampered reference digest is the negative control for the output
// check: every op must fail and the run must exit non-zero.
func TestTamperedReferenceFailsRun(t *testing.T) {
	name := "lublin-20k-cons"
	ref := reference{refKey(name, true): strings.Repeat("0", 64)}
	r, err := measure(name, smokeRun(t, defaultSeed, ref, false))
	if err != nil {
		t.Fatal(err)
	}
	if r.errorRate() != 1 || exitCode(r) == 0 {
		t.Fatalf("error rate %g, exit code %d; want 1 and non-zero", r.errorRate(), exitCode(r))
	}
	var out bytes.Buffer
	if err := r.print(&out, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct{ Correct bool }
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct {
		t.Fatalf("result line %q: want correct=false (%v)", lines[len(lines)-1], err)
	}
}

// Tracing must not change a single decision: traced and untraced ops
// produce the same digest.
func TestTracedOpsMatchUntraced(t *testing.T) {
	for _, sp := range specs {
		w, err := sp.new(runConfig{seed: 7, smoke: true, root: "..", scratch: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		var digests [2]string
		for i, tr := range []*tracer{nil, newTracer()} {
			out, err := w.op(tr)
			if err == nil {
				digests[i], err = out.digest()
			}
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: traced digest %.12s, untraced %.12s", sp.name, digests[1], digests[0])
		}
	}
}

type baseCtx struct{ sched.Context }

type runEpoch struct{}

func (runEpoch) RunningEpoch() uint64 { return 11 }

type windowEpoch struct{}

func (windowEpoch) WindowsEpoch() uint64 { return 22 }

type queueEpoch struct{}

func (queueEpoch) SubmitEpoch() uint64 { return 33 }

func TestContextWrapperForwardsExactlyTheInnerEpochs(t *testing.T) {
	engine := des.NewEngine(8)
	inst, err := sim.NewInstance(engine, "t", 4, sched.NewEASY(), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []sched.Context{
		baseCtx{},
		struct {
			baseCtx
			runEpoch
		}{},
		struct {
			baseCtx
			windowEpoch
		}{},
		struct {
			baseCtx
			queueEpoch
		}{},
		struct {
			baseCtx
			runEpoch
			windowEpoch
		}{},
		struct {
			baseCtx
			runEpoch
			queueEpoch
		}{},
		struct {
			baseCtx
			windowEpoch
			queueEpoch
		}{},
		struct {
			baseCtx
			runEpoch
			windowEpoch
			queueEpoch
		}{},
		inst,
	} {
		wrapped := wrapContext(inner, newTracer())
		ir, iHasR := inner.(sched.RunEpoch)
		wr, wHasR := wrapped.(sched.RunEpoch)
		iw, iHasW := inner.(sched.WindowEpoch)
		ww, wHasW := wrapped.(sched.WindowEpoch)
		iq, iHasQ := inner.(sched.QueueEpoch)
		wq, wHasQ := wrapped.(sched.QueueEpoch)
		if iHasR != wHasR || iHasW != wHasW || iHasQ != wHasQ {
			t.Errorf("%T: inner has run/windows/queue epochs %v/%v/%v, wrapper %v/%v/%v",
				inner, iHasR, iHasW, iHasQ, wHasR, wHasW, wHasQ)
			continue
		}
		if (iHasR && ir.RunningEpoch() != wr.RunningEpoch()) ||
			(iHasW && iw.WindowsEpoch() != ww.WindowsEpoch()) ||
			(iHasQ && iq.SubmitEpoch() != wq.SubmitEpoch()) {
			t.Errorf("%T: wrapper reports different epoch values", inner)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2, 3], n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := boundedMetric{Name: "op_p50_s", Better: "lower", Bound: 0.1}
	a := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"within bound", scale(a, 1.05), "ok"},
		{"beyond bound", scale(a, 1.2), "worse"},
		{"too noisy to tell", []float64{0.6, 1.4, 0.8, 1.2, 1.0, 0.7}, "unresolved"},
		{"noisy but better in every run", []float64{0.5, 0.7, 0.9, 0.6, 0.8, 0.55}, "ok"},
	} {
		if got := verdict(a, c.b, m); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if got := verdict(a, scale(a, 0.8), boundedMetric{Better: "higher", Bound: 0.1}); got != "worse" {
		t.Errorf("higher-is-better drop: verdict %s, want worse", got)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the
// harness reports, with the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []boundedMetric `json:"end_to_end"`
		PerLayer []boundedMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, sp := range specs {
		want = append(want, sp.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, want)
	}
	same := func(kind string, got []boundedMetric, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ symbol, want string }{
		{"parsched/internal/sched.(*EASY).schedule", "sched"},
		{"parsched/internal/workload/trace.(*JobReader).Next", "trace"},
		{"parsched/internal/model/lublin.(*sampler).sample", "model"},
		{"parsched/internal/meta.(*Grid).Run", "other"},
		{"main.(*tracer).end", "bench"},
		{"parsched/bench.spin", "bench"},
		{"runtime.mallocgc", ""},
		{"type:.eq.parsched/internal/sched.Window", ""},
	} {
		got := ""
		if l := layerOf(c.symbol); l >= 0 {
			got = layers[l]
		}
		if got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.symbol, got, c.want)
		}
	}
}

var spinSink uint64

// spin burns CPU in this package, so its samples belong to "bench".
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// The profile decoder must find the samples where the CPU went.
func TestProfileAttribution(t *testing.T) {
	cpu, err := profileLayers(func() { spin(300 * time.Millisecond) })
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range cpu {
		total += ns
	}
	bench := cpu[layerOf("main.spin")]
	if total == 0 || float64(bench) < 0.8*float64(total) {
		t.Fatalf("bench layer has %d of %d profiled ns; want most of them", bench, total)
	}
}
