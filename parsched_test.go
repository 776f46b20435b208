package parsched

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeGenerateSimulateReport(t *testing.T) {
	w, err := Generate("lublin99", ModelConfig{MaxNodes: 64, Jobs: 300, Seed: 1, Load: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(w, "easy", SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report(64)
	if r.Finished != 300 {
		t.Fatalf("finished %d/300", r.Finished)
	}
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Fatalf("utilization %v", r.Utilization)
	}
}

// TestFacadeStreamingCollector drives the whole streaming pipeline
// through the public surface: a collector attached as a simulation
// observer, with warmup truncation and time-series sampling, matching
// the batch report where it should.
func TestFacadeStreamingCollector(t *testing.T) {
	w, err := Generate("lublin99", ModelConfig{MaxNodes: 64, Jobs: 300, Seed: 1, Load: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(CollectorOptions{Scheduler: "easy", Workload: w.Name, Procs: 64})
	res, err := Simulate(w, "easy", SimOptions{
		Observers:   []SimObserver{col},
		SampleEvery: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := res.Report(64)
	stream := col.Report()
	if stream.Finished != batch.Finished || stream.Wait.Mean != batch.Wait.Mean ||
		stream.Wait.P99 != batch.Wait.P99 || stream.Utilization != batch.Utilization {
		t.Fatalf("streamed report diverges:\n stream %+v\n batch  %+v", stream, batch)
	}
	if ts := col.Series(); ts == nil || len(ts.Samples) == 0 {
		t.Fatal("no time series recorded")
	}
	// A RunSpec carries the same collector configuration.
	spec, err := ParseSchedulerSpec("easy")
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(RunSpec{
		Scheduler: spec,
		Source:    ParseWorkloadSource("model:lublin99"),
		Jobs:      300, Nodes: 64, Seed: 1,
		Loads:   []float64{0.7},
		Metrics: MetricsSpec{WarmupJobs: 50, Tau: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0].Report; r.Truncated != 50 || r.Tau != 60 {
		t.Fatalf("metrics spec not honoured: %+v", r)
	}
}

func TestFacadeUnknownNames(t *testing.T) {
	if _, err := Generate("nope", ModelConfig{}); err == nil {
		t.Fatal("unknown model accepted")
	}
	w, _ := Generate("naive", ModelConfig{MaxNodes: 8, Jobs: 10, Seed: 1})
	if _, err := Simulate(w, "nope", SimOptions{}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := RunExperimentConfig("E42", QuickExperimentConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFacadeSWFPipeline(t *testing.T) {
	w, _ := Generate("feitelson96", ModelConfig{MaxNodes: 32, Jobs: 100, Seed: 2, Load: 0.6})
	log := WorkloadToSWF(w)
	if findings := ValidateSWF(log); len(findings) != 0 {
		t.Fatalf("generated log has findings: %v", findings[0])
	}
	var buf bytes.Buffer
	if err := WriteSWF(&buf, log); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	clean, summary := CleanSWF(back)
	if !strings.Contains(summary, "100 records in") {
		t.Fatalf("clean summary: %s", summary)
	}
	w2, err := WorkloadFromSWF(clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(w2.Jobs) != 100 {
		t.Fatalf("round trip lost jobs: %d", len(w2.Jobs))
	}
}

func TestFacadeInferFeedback(t *testing.T) {
	w, _ := Generate("lublin99", ModelConfig{MaxNodes: 64, Jobs: 500, Seed: 3, Load: 0.7})
	linked := InferFeedback(w, 3600)
	if linked <= 0 {
		t.Fatal("no feedback chains inferred on a lublin workload")
	}
}

func TestFacadeLists(t *testing.T) {
	if len(Models()) != 5 {
		t.Fatalf("models: %v", Models())
	}
	// 9 families + 6 legacy aliases, derived from the registry (the
	// pre-registry listing omitted gang2/gang3/gang5).
	if len(Schedulers()) != 15 {
		t.Fatalf("schedulers: %v", Schedulers())
	}
	// Every listed scheduler must build — the facade-level view of the
	// anti-drift regression.
	w, _ := Generate("naive", ModelConfig{MaxNodes: 8, Jobs: 5, Seed: 1})
	for _, name := range Schedulers() {
		if _, err := Simulate(w, name, SimOptions{}); err != nil {
			t.Errorf("listed scheduler %q: %v", name, err)
		}
	}
	exps := Experiments()
	if len(exps) != 10 || exps["E1"] == "" {
		t.Fatalf("experiments: %v", exps)
	}
}

func TestFacadeSpecAPI(t *testing.T) {
	sp, err := ParseSchedulerSpec("easy(reserve=2, window)")
	if err != nil {
		t.Fatal(err)
	}
	if sp.String() != "easy(reserve=2, window)" {
		t.Fatalf("canonical form: %q", sp.String())
	}
	if !strings.Contains(SchedulerUsage(), "reserve") {
		t.Fatal("usage text missing parameters")
	}
	results, err := Run(RunSpec{
		Scheduler: sp,
		Source:    ParseWorkloadSource("model:lublin99"),
		Jobs:      200, Nodes: 32, Seed: 9,
		Loads: []float64{0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Report.Finished != 200 {
		t.Fatalf("run results: %+v", results)
	}
}

func TestFacadeConfigEntryPoints(t *testing.T) {
	tables, err := RunExperimentConfig("E3", QuickExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatal("E3 produced no rows")
	}
	// The same configuration must reproduce the same table.
	again, err := RunExperimentConfig("E3", QuickExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].String() != again[0].String() {
		t.Fatal("RunExperimentConfig is not deterministic")
	}
}

func TestFacadeRunExperimentQuick(t *testing.T) {
	tables, err := RunExperimentConfig("E3", QuickExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatal("E3 produced no rows")
	}
	if !strings.Contains(tables[0].String(), "ranking") {
		t.Fatal("table rendering broken")
	}
}
