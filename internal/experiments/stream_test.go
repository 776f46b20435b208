package experiments

import (
	"path/filepath"
	"reflect"
	"testing"

	"parsched/internal/sched"
	"parsched/internal/swf"
	"parsched/internal/workload/trace"
)

// cleanedTrace writes the cleaned (streamable) form of the trace
// fixture to a temp file.
func cleanedTrace(t *testing.T) string {
	t.Helper()
	log, err := swf.ReadFile("../workload/trace/testdata/mini.swf")
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

func traceSpec(path string) RunSpec {
	return RunSpec{
		Scheduler: sched.Spec{Family: "easy"},
		Source:    Source{Kind: sourceTrace, Arg: path},
	}
}

func TestExecuteAutoStreamMatchesMaterialized(t *testing.T) {
	path := cleanedTrace(t)

	// Execute streams the faithful replay of a streamable file, whatever
	// its size; ExecuteSource always materializes. The results must be
	// identical — the choice of path must be invisible in the output.
	if _, ok := traceSpec(path).streamSource(); !ok {
		t.Fatal("faithful replay of a streamable file must stream")
	}
	str, err := Execute(traceSpec(path))
	if err != nil {
		t.Fatalf("streaming Execute: %v", err)
	}
	src, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := ExecuteSource(src, traceSpec(path))
	if err != nil {
		t.Fatalf("materialized ExecuteSource: %v", err)
	}

	if !reflect.DeepEqual(mat, str) {
		t.Fatalf("results diverge:\nmaterialized %+v\nstreamed     %+v", mat, str)
	}
}

func TestAutoStreamGateRespectsRunShape(t *testing.T) {
	path := cleanedTrace(t)
	base := traceSpec(path)
	if _, ok := base.streamSource(); !ok {
		t.Fatal("baseline spec should stream")
	}

	shapes := map[string]RunSpec{}
	loaded := base
	loaded.Loads = []float64{0.8} // rescaling needs the materialized workload
	shapes["rescaled load"] = loaded
	rep := base
	rep.Rep = 2 // gap resampling needs the materialized workload
	shapes["replication variant"] = rep
	fb := base
	fb.Sim.Feedback = true // closed loop is unsupported in streaming
	shapes["feedback"] = fb

	for name, rs := range shapes {
		if _, ok := rs.streamSource(); ok {
			t.Errorf("%s: must fall back to the materialized path", name)
		}
	}
	model := base
	model.Source = Source{Kind: sourceModel, Arg: defaultSubstrate}
	if _, ok := model.streamSource(); ok {
		t.Error("model source: must fall back to the materialized path")
	}

	// Truncation is compatible with streaming (a prefix of the stream).
	trunc := base
	trunc.Jobs = 5
	if _, ok := trunc.streamSource(); !ok {
		t.Error("truncated replay should still stream")
	}
	res, err := Execute(trunc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Workload.Jobs != 5 {
		t.Fatalf("truncated stream run reported %+v", res)
	}
}
