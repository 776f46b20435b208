package parsched

// Ablation benchmarks for the design choices DESIGN.md calls out. These
// measure the *cost* of each feature (wall time of the simulation); the
// corresponding *benefit* numbers are the experiment tables (estimate
// quality → E1/backfill-study, window awareness → E5/E6, gang
// multiprogramming level → gang tests). Comparing the paired benches
// quantifies what each capability costs the simulator.

import (
	"testing"

	"parsched/internal/model/lublin"
	"parsched/internal/outage"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/stats"
)

// ablationWorkload is shared by all ablation benches.
func ablationWorkload() *Workload {
	return lublin.Default().Generate(ModelConfig{
		MaxNodes: 128, Jobs: 2000, Seed: 1234, Load: 0.8, EstimateFactor: 2,
	})
}

// BenchmarkAblationEstimatesUser measures EASY consuming user
// estimates (the realistic configuration).
func BenchmarkAblationEstimatesUser(b *testing.B) {
	w := ablationWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w, sched.NewEASY(), sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEstimatesPerfect measures EASY with oracle runtimes
// (the upper bound backfilling evaluations compare against).
func BenchmarkAblationEstimatesPerfect(b *testing.B) {
	w := ablationWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w, sched.NewEASY(), sim.Options{PerfectEstimates: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// heavyReservations builds the dense reservation calendar that made the
// naive per-candidate profile rebuild quadratic (the regression that
// motivated the pass-level profile cache and the planning horizon).
func heavyReservations(w *Workload) []sched.Reservation {
	span := w.Span()
	var out []sched.Reservation
	id := int64(1)
	for start := int64(4 * 3600); start < span; start += 4 * 3600 {
		out = append(out, sched.Reservation{
			ID: id, Procs: 24, Start: start, End: start + 2*3600,
		})
		id++
	}
	return out
}

// BenchmarkAblationWindowsOff: reservation stream present but the
// scheduler ignores it (baseline cost).
func BenchmarkAblationWindowsOff(b *testing.B) {
	w := ablationWorkload()
	resvs := heavyReservations(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w, sched.NewEASY(), sim.Options{Reservations: resvs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWindowsOn: the window-aware scheduler plans around
// the same calendar — the price of honouring reservations.
func BenchmarkAblationWindowsOn(b *testing.B) {
	w := ablationWorkload()
	resvs := heavyReservations(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w, sched.NewEASYWindows(), sim.Options{Reservations: resvs}); err != nil {
			b.Fatal(err)
		}
	}
}

// congestedAblationWorkload is the small-scale deep-queue burst for the
// ledger ablation pair: the same construction as the committed
// BenchmarkLargeConservativeCongested trajectory bench (arrivals
// compressed into a burst, runtimes stretched past the horizon), sized
// so the from-scratch arm still finishes in CI time.
func congestedAblationWorkload() *Workload {
	w := lublin.Default().Generate(ModelConfig{
		MaxNodes: 128, Jobs: 700, Seed: 99, Load: 0.9, EstimateFactor: 2,
	})
	for i, j := range w.Jobs {
		j.Submit = int64(i) * 5
		j.Runtime = congestedAblationHorizon + 3600 + int64(i%7)*600
		j.Estimate = 2 * j.Runtime
	}
	return w
}

const congestedAblationHorizon = int64(28800)

func benchCongestedCons(b *testing.B, disableLedger bool) {
	w := congestedAblationWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &sched.Conservative{DisableLedger: disableLedger}
		res, err := sim.Run(w, s, sim.Options{Horizon: congestedAblationHorizon})
		if err != nil {
			b.Fatal(err)
		}
		started := 0
		for _, o := range res.Outcomes {
			if o.Start >= 0 {
				started++
			}
		}
		if started == 0 || started == len(res.Outcomes) {
			b.Fatalf("not congested: %d of %d started", started, len(res.Outcomes))
		}
	}
}

// BenchmarkAblationLedgerOn: conservative backfilling over the deep-
// queue burst with resumable passes (the default configuration).
func BenchmarkAblationLedgerOn(b *testing.B) { benchCongestedCons(b, false) }

// BenchmarkAblationLedgerOff: the identical run re-deriving every
// reservation from scratch on every event — the pre-ledger behavior,
// kept measurable as the cost of the quadratic walk.
func BenchmarkAblationLedgerOff(b *testing.B) { benchCongestedCons(b, true) }

// BenchmarkAblationGang2 and Gang5 measure the event-rate cost of the
// multiprogramming level (more rows = more rate rebalances per event).
func BenchmarkAblationGang2(b *testing.B) { benchGang(b, 2) }

// BenchmarkAblationGang5 is the 5-row variant.
func BenchmarkAblationGang5(b *testing.B) { benchGang(b, 5) }

func benchGang(b *testing.B, slots int) {
	w := ablationWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w, sched.NewGang(slots), sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOutageReplay measures the cost of dense outage
// injection (kill/restart machinery) relative to the clean runs above.
func BenchmarkAblationOutageReplay(b *testing.B) {
	w := ablationWorkload()
	olog := outage.Generate(outage.GeneratorConfig{
		Nodes: 128, Horizon: w.Span() + 86400,
		MTBF:   stats.Exponential{Lambda: 1.0 / 14400},
		Repair: stats.Constant{C: 1800},
	}, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w, sched.NewEASY(), sim.Options{Outages: olog}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMemAware measures allocation with per-node memory
// constraints against the unconstrained allocator.
func BenchmarkAblationMemAware(b *testing.B) {
	w := lublin.Default().Generate(ModelConfig{
		MaxNodes: 128, Jobs: 2000, Seed: 1234, Load: 0.8, Memory: true,
	})
	mems := make([]int64, 128)
	for i := range mems {
		mems[i] = int64(1+i%4) * 512 * 1024
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w, sched.NewFirstFit(), sim.Options{NodeMem: mems, MemAware: true}); err != nil {
			b.Fatal(err)
		}
	}
}
