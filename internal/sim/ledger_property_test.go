package sim

// Property test for the schedulers' incremental state: over randomized
// event sequences — submits, normal finishes, early finishes (estimate
// factor > 1), outage kills with restarts or drops, announced
// maintenance, visible outage windows, and advance reservations — a
// ledger-resumed run must be indistinguishable from a from-scratch
// walk, and a run whose scheduler sees the simulator's epoch stamps
// from one where it sees none. Not statistically similar: byte-equal
// outcome streams, reservation grants, and reports. Every cache and
// resume replays the exact deterministic decision sequence it stands
// in for, so any divergence, however small, is a bug.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"parsched/internal/core"
	"parsched/internal/model"
	"parsched/internal/model/lublin"
	"parsched/internal/outage"
	"parsched/internal/sched"
	"parsched/internal/stats"
)

// ledgerPair builds the ledger-on and ledger-off variants of one
// scheduler configuration. Fresh values each call: schedulers carry
// per-run state and must never be shared across runs.
type ledgerPair struct {
	name string
	mk   func(disable bool) sched.Scheduler
}

func ledgerPairs() []ledgerPair {
	return []ledgerPair{
		{"cons", func(d bool) sched.Scheduler {
			return &sched.EASY{Reserve: sched.ReserveAll, DisableLedger: d}
		}},
		{"cons+win", func(d bool) sched.Scheduler {
			return &sched.EASY{Windows: true, Reserve: sched.ReserveAll, DisableLedger: d}
		}},
		{"easy-deep", func(d bool) sched.Scheduler {
			return &sched.EASY{Reserve: 4, DisableLedger: d}
		}},
		{"easy-deep+win", func(d bool) sched.Scheduler {
			return &sched.EASY{Reserve: 4, Windows: true, DisableLedger: d}
		}},
	}
}

// stampless hands its scheduler every callback's context with the
// RunEpoch, WindowEpoch and QueueEpoch stamps hidden, so the scheduler
// may reuse nothing they guard: every profile build merges from
// scratch and the ledger never commits.
type stampless struct{ sched.Scheduler }

func (s stampless) OnSubmit(ctx sched.Context, j *core.Job) {
	s.Scheduler.OnSubmit(struct{ sched.Context }{ctx}, j)
}

func (s stampless) OnFinish(ctx sched.Context, j *core.Job) {
	s.Scheduler.OnFinish(struct{ sched.Context }{ctx}, j)
}

func (s stampless) OnChange(ctx sched.Context) { s.Scheduler.OnChange(struct{ sched.Context }{ctx}) }

func (s stampless) Queued() []*core.Job { return s.Scheduler.(sched.QueueReporter).Queued() }

// checkSameDecisions runs a scheduler and its reference over the same
// inputs and fails on the first field-level divergence between the
// runs.
func checkSameDecisions(t *testing.T, name string, s, ref sched.Scheduler, wMake func() *core.Workload, opts Options) {
	t.Helper()
	got, err := Run(wMake(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(wMake(), ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("%s: run produced %d outcomes, reference %d",
			name, len(got.Outcomes), len(want.Outcomes))
	}
	// Element-wise, not keyed by job ID: identical decisions imply the
	// outcome stream is emitted in the identical event order too.
	for i := range got.Outcomes {
		if got.Outcomes[i] != want.Outcomes[i] {
			t.Fatalf("%s: outcome %d diverged:\n  run:       %+v\n  reference: %+v",
				name, i, got.Outcomes[i], want.Outcomes[i])
		}
	}
	if len(got.Reservations) != len(want.Reservations) {
		t.Fatalf("%s: reservation outcome counts diverged: %d vs %d",
			name, len(got.Reservations), len(want.Reservations))
	}
	for i := range got.Reservations {
		if got.Reservations[i] != want.Reservations[i] {
			t.Fatalf("%s: reservation outcome %d diverged:\n  run:       %+v\n  reference: %+v",
				name, i, got.Reservations[i], want.Reservations[i])
		}
	}
	ra, rb := got.Report(wMake().MaxNodes), want.Report(wMake().MaxNodes)
	if ra != rb {
		t.Fatalf("%s: reports diverged:\n  run:       %+v\n  reference: %+v", name, ra, rb)
	}
}

// stampSpecs are the schedulers the stamp-hidden reference covers:
// every registered name (its aliases include easy+mold, which is
// easy(mold), and cons+win, which is cons(window)) plus the deep
// reservation walks.
func stampSpecs() []string {
	return append(sched.Names(), "easy(reserve=4)", "easy(reserve=4, window)")
}

// TestLedgerResumeEquivalenceProperty is the randomized cross-check:
// each quick iteration draws a workload, an outage log, and a
// reservation calendar from the seed and, under each options set,
// demands decision-identical runs for every ledger-capable scheduler
// configuration with the ledger on and off, and for every scheduler
// with the context's epoch stamps visible and hidden.
func TestLedgerResumeEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := model.Config{
			MaxNodes: 32,
			Jobs:     120 + rng.Intn(80),
			Seed:     seed,
			Load:     0.7 + rng.Float64()*0.8, // up to 1.5: congested queues resume often
			// > 1 so most finishes land early, invalidating recorded
			// reservations at random offsets before their fall-due times.
			EstimateFactor: 1.2 + rng.Float64(),
		}
		wMake := func() *core.Workload { return lublin.Default().Generate(cfg) }
		span := wMake().Span()

		// Outage windows plus the kills they cause. Moderate density:
		// every window edge invalidates window-set memos, every kill
		// bumps the run epoch mid-pass.
		mtbf := 3600 + rng.Int63n(4*3600)
		log := outage.Generate(outage.GeneratorConfig{
			Nodes: 32, Horizon: span + 7*86400,
			MTBF:              stats.Exponential{Lambda: 1.0 / float64(mtbf)},
			Repair:            stats.Exponential{Lambda: 1.0 / 1200},
			FailureNodes:      stats.Constant{C: 2},
			MaintenanceEvery:  6 * 3600,
			MaintenanceLength: 1800,
			MaintenanceLead:   2 * 3600,
		}, seed)

		// A random calendar of advance reservations, some announced at
		// time zero, some mid-run — both claim and release edges land
		// between scheduling passes.
		nResv := 2 + rng.Intn(4)
		resvs := make([]sched.Reservation, 0, nResv)
		for i := 0; i < nResv; i++ {
			start := rng.Int63n(span + 1)
			resvs = append(resvs, sched.Reservation{
				ID:        int64(1000 + i),
				Procs:     4 + rng.Intn(12),
				Start:     start,
				End:       start + 1800 + rng.Int63n(2*3600),
				Announced: start / (1 + rng.Int63n(3)),
			})
		}
		for _, o := range []struct {
			name string
			opts Options
		}{
			{"plain", Options{}},
			{"outages", Options{Outages: log, Reservations: resvs}},
			{"drop-killed", Options{Outages: log, Reservations: resvs, DropKilled: true}},
		} {
			for _, p := range ledgerPairs() {
				name := fmt.Sprintf("seed %d, %s, %s ledger on vs off", seed, o.name, p.name)
				checkSameDecisions(t, name, p.mk(false), p.mk(true), wMake, o.opts)
			}
			for _, spec := range stampSpecs() {
				name := fmt.Sprintf("seed %d, %s, %s stamped vs stampless", seed, o.name, spec)
				checkSameDecisions(t, name, mustNew(t, spec), stampless{mustNew(t, spec)}, wMake, o.opts)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func mustNew(t *testing.T, spec string) sched.Scheduler {
	t.Helper()
	s, err := sched.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
