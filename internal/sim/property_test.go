package sim

// Property-style tests over randomized workloads: invariants that must
// hold for every scheduler on every input, plus failure-injection
// stress.

import (
	"testing"
	"testing/quick"

	"parsched/internal/core"
	"parsched/internal/model"
	"parsched/internal/model/lublin"
	"parsched/internal/outage"
	"parsched/internal/sched"
	"parsched/internal/stats"
)

// checkUniversalInvariants asserts the properties every run must have.
func checkUniversalInvariants(t *testing.T, name string, w *core.Workload, res *Result) {
	t.Helper()
	r := res.Report(w.MaxNodes)
	if r.Jobs+res.NeverSubmitted != len(w.Jobs) {
		t.Fatalf("%s: accounting: %d outcomes + %d never-submitted != %d jobs",
			name, r.Jobs, res.NeverSubmitted, len(w.Jobs))
	}
	for _, o := range res.Outcomes {
		if o.Start >= 0 && o.Start < o.Submit {
			t.Fatalf("%s: job %d started before submit", name, o.JobID)
		}
		if o.Finished() {
			if o.End <= o.Start && o.Runtime > 0 {
				t.Fatalf("%s: job %d non-positive span", name, o.JobID)
			}
			if bsld := o.BoundedSlowdown(); bsld < 1 {
				t.Fatalf("%s: job %d bounded slowdown %v < 1", name, o.JobID, bsld)
			}
		}
		if o.LostWork < 0 || o.Restarts < 0 {
			t.Fatalf("%s: job %d negative loss accounting", name, o.JobID)
		}
	}
	if r.Finished > 0 && (r.Utilization <= 0 || r.Utilization > 1) {
		t.Fatalf("%s: utilization %v", name, r.Utilization)
	}
}

func TestInvariantsAcrossSchedulersProperty(t *testing.T) {
	schedNames := []string{"fcfs", "firstfit", "sjf", "ljf", "smallest", "lxf", "easy", "easy+win", "cons", "cons+win", "gang"}
	f := func(seed int64) bool {
		w := lublin.Default().Generate(model.Config{
			MaxNodes: 32, Jobs: 150, Seed: seed, Load: 0.9, EstimateFactor: 1.5,
		})
		for _, name := range schedNames {
			s, err := sched.New(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(w, s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkUniversalInvariants(t, name, w, res)
			if res.Report(32).Finished != 150 {
				t.Fatalf("%s: seed %d: not all jobs finished", name, seed)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestGangWorkConservation(t *testing.T) {
	// Time-shared execution stretches wall-clock but conserves work:
	// every gang job's span is at least its nominal runtime, and a job
	// alone on the matrix runs at full speed.
	w := lublin.Default().Generate(model.Config{
		MaxNodes: 32, Jobs: 200, Seed: 77, Load: 0.8,
	})
	res, err := Run(w, sched.NewGang(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	jobsByID := map[int64]*core.Job{}
	for _, j := range w.Jobs {
		jobsByID[j.ID] = j
	}
	for _, o := range res.Outcomes {
		if !o.Finished() {
			continue
		}
		nominal := jobsByID[o.JobID].Runtime
		span := o.End - o.Start
		if span < nominal {
			t.Fatalf("job %d ran %ds < nominal %ds (work created from nothing)",
				o.JobID, span, nominal)
		}
		// Rates are at least 1/Slots, so the stretch is bounded.
		if span > 3*nominal+3 {
			t.Fatalf("job %d stretched %dx beyond the slot bound", o.JobID, span/nominal)
		}
	}
}

func TestOutageStorm(t *testing.T) {
	// Failure injection: dense random outages. The simulation must
	// terminate with consistent accounting regardless of policy.
	w := lublin.Default().Generate(model.Config{
		MaxNodes: 32, Jobs: 200, Seed: 3, Load: 0.8, EstimateFactor: 2,
	})
	horizon := w.Span() + 30*86400
	storm := outage.Generate(outage.GeneratorConfig{
		Nodes: 32, Horizon: horizon,
		MTBF:         stats.Exponential{Lambda: 1.0 / 1800}, // every 30 min!
		Repair:       stats.Exponential{Lambda: 1.0 / 900},
		FailureNodes: stats.Constant{C: 2},
	}, 4)
	if len(storm.Records) < 100 {
		t.Fatalf("storm too gentle: %d outages", len(storm.Records))
	}
	for _, policy := range []struct {
		name string
		opts Options
	}{
		{"restart", Options{Outages: storm}},
		{"drop", Options{Outages: storm, DropKilled: true}},
	} {
		res, err := Run(w, sched.NewEASY(), policy.opts)
		if err != nil {
			t.Fatal(err)
		}
		checkUniversalInvariants(t, policy.name, w, res)
		r := res.Report(32)
		if policy.name == "drop" && r.Dropped == 0 {
			t.Error("storm with drop policy killed nothing")
		}
		if policy.name == "restart" && r.Restarts == 0 {
			t.Error("storm with restart policy restarted nothing")
		}
	}
}

func TestHighLoadLeavesQueueNonEmptyAtHorizon(t *testing.T) {
	// Sanity for horizon semantics under overload: cutting the run
	// mid-saturation reports unfinished jobs rather than losing them.
	w := lublin.Default().Generate(model.Config{
		MaxNodes: 16, Jobs: 300, Seed: 6, Load: 2.5,
	})
	res, err := Run(w, sched.NewFCFS(), Options{Horizon: w.Span() / 2})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report(16)
	if r.Unfinished == 0 {
		t.Error("overloaded horizon run should leave unfinished jobs")
	}
	checkUniversalInvariants(t, "horizon", w, res)
}
