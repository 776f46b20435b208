package parsched

// Large-scale stress benchmarks for the simulation core. These are the
// benchmarks the perf trajectory is measured against (scripts/bench.sh
// emits them into BENCH_PR2.json): two macro-benchmarks replaying a
// 20k-job Lublin workload on a 512-node machine under the two
// backfilling families — the workload scale of the Mu'alem & Feitelson
// SWF evaluations — plus micro-benchmarks for the cluster allocator and
// the scheduler-visible running set, which dominate per-event cost.

import (
	"testing"

	"parsched/internal/cluster"
	"parsched/internal/core"
	"parsched/internal/des"
	"parsched/internal/model/lublin"
	"parsched/internal/sched"
	"parsched/internal/sim"
)

// largeWorkload is shared by the macro-benchmarks: one deterministic
// 20k-job trace generated once per process.
var largeWorkload *Workload

func benchLargeWorkload(b *testing.B) *Workload {
	if largeWorkload == nil {
		largeWorkload = lublin.Default().Generate(ModelConfig{
			MaxNodes: 512, Jobs: 20000, Seed: 7, Load: 0.85, EstimateFactor: 2,
		})
	}
	if len(largeWorkload.Jobs) != 20000 {
		b.Fatalf("short workload: %d jobs", len(largeWorkload.Jobs))
	}
	return largeWorkload
}

func benchLargeSim(b *testing.B, scheduler string) {
	w := benchLargeWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sched.New(scheduler)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(w, s, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Report(512).Finished == 0 {
			b.Fatal("nothing finished")
		}
	}
}

func BenchmarkLargeEASY(b *testing.B)         { benchLargeSim(b, "easy") }
func BenchmarkLargeConservative(b *testing.B) { benchLargeSim(b, "cons") }

// congestedHorizon caps the congested replay: the burst has fully
// arrived by then, and every runtime is stretched past it, so the
// measured phase is the congestion itself rather than the drain.
const congestedHorizon = int64(57600)

// congestedLargeWorkload is the deep-queue variant: Lublin job sizes,
// but arrivals compressed into a tight burst and runtimes stretched
// past the horizon, so the machine saturates in the first few minutes
// and thousands of jobs sit waiting — every one of them holding a
// reservation a conservative pass must honour. This is the regime where
// a from-scratch walk per event is cubic in the burst (submits × queue
// × profile segments) and the reservation ledger's resumable passes
// keep it near-linear; the ablation pair (BenchmarkAblationLedgerOn/
// Off) pins the same gap at a size the from-scratch arm can still
// finish.
var congestedLarge *Workload

func benchCongestedWorkload(b *testing.B) *Workload {
	if congestedLarge == nil {
		congestedLarge = lublin.Default().Generate(ModelConfig{
			MaxNodes: 512, Jobs: 4000, Seed: 42, Load: 0.9, EstimateFactor: 2,
		})
		for i, j := range congestedLarge.Jobs {
			j.Submit = int64(i) * 3
			j.Runtime = congestedHorizon + 3600 + int64(i%7)*600
			j.Estimate = 2 * j.Runtime
		}
	}
	if len(congestedLarge.Jobs) != 4000 {
		b.Fatalf("short workload: %d jobs", len(congestedLarge.Jobs))
	}
	return congestedLarge
}

// BenchmarkLargeConservativeCongested replays the deep-queue burst
// under conservative backfilling with the reservation ledger on (the
// default). Nothing finishes inside the horizon, so correctness is
// checked on starts: the machine must saturate while the queue stays
// deep.
func BenchmarkLargeConservativeCongested(b *testing.B) {
	w := benchCongestedWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sched.New("cons")
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(w, s, sim.Options{Horizon: congestedHorizon})
		if err != nil {
			b.Fatal(err)
		}
		started, waiting := startedWaiting(res)
		if started == 0 || waiting < 1000 {
			b.Fatalf("not congested: %d started, %d waiting", started, waiting)
		}
	}
}

// startedWaiting counts jobs that began running vs jobs still queued at
// the horizon.
func startedWaiting(res *sim.Result) (started, waiting int) {
	for _, o := range res.Outcomes {
		if o.Start >= 0 {
			started++
		} else {
			waiting++
		}
	}
	return started, waiting
}

// BenchmarkAllocate512 exercises allocation on a 512-node machine at
// ~50% occupancy: the allocator's steady state during a backfilling
// run.
func BenchmarkAllocate512(b *testing.B) {
	m := cluster.New(512)
	// Pre-fill half the machine so Allocate works against a partly used
	// free set, as it does mid-simulation.
	for o := int64(1); o <= 16; o++ {
		if _, ok := m.Allocate(o, 16); !ok {
			b.Fatal("prefill failed")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner := int64(1000 + i)
		if _, ok := m.Allocate(owner, 32); !ok {
			b.Fatal("allocate failed")
		}
		m.Release(owner)
	}
}

// BenchmarkRunningSet measures the cost of the scheduler-visible
// Running() view with 256 concurrent jobs — the call every scheduler
// callback makes before building its availability profile.
func BenchmarkRunningSet(b *testing.B) {
	engine := &des.Engine{}
	s, err := sched.New("fcfs")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := sim.NewInstance(engine, "bench", 512, s, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		j := &core.Job{
			ID: int64(i + 1), Size: 2,
			Runtime: int64(1000000 + i*37), Estimate: int64(1000000 + i*37),
		}
		inst.SubmitAt(j, 0)
	}
	engine.RunUntil(10)
	if got := len(inst.Running()); got != 256 {
		b.Fatalf("running = %d, want 256", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(inst.Running()) != 256 {
			b.Fatal("running set changed")
		}
	}
}
