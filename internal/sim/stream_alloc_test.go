package sim

import (
	"testing"

	"parsched/internal/core"
	"parsched/internal/metrics"
	"parsched/internal/sched"
)

// synthStreamJobs builds n jobs shaped like the synthesized million-job
// replay log: sizes 1–32 on 128 nodes, runtimes 60–1259 s, estimates up
// to twice the runtime, and arrival gaps that put the offered load near
// 0.7 — busy enough for EASY to queue and backfill.
func synthStreamJobs(n int) []*core.Job {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(k uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % k
	}
	jobs := make([]*core.Job, n)
	var submit int64
	for i := range jobs {
		size := 1 + next(32)
		runtime := int64(60 + next(1200))
		submit += int64(60 + next(125))
		jobs[i] = &core.Job{
			ID: int64(i + 1), Submit: submit, Size: int(size), Runtime: runtime,
			Estimate: runtime + int64(next(uint64(runtime+1))), User: int64(1 + next(40)),
		}
	}
	return jobs
}

// TestRunStreamAllocsPerJob pins the streaming replay's per-job
// allocation constant. With outcomes discarded and a sketch collector,
// an arrival, a start and a finish draw only on pools, arenas and
// buffers the run already holds: the only allocation that scales with
// the trace is one outcome block per 256 jobs. The constant is the
// slope between a 10k-job and a 20k-job replay of the same stream, so
// the run's fixed set-up (engine, machine, collector, and pools sized
// by the peak number of jobs in flight, ~160 allocations) cancels out.
func TestRunStreamAllocsPerJob(t *testing.T) {
	const n = 20000
	jobs := synthStreamJobs(n)
	replay := func(jobs []*core.Job) float64 {
		return testing.AllocsPerRun(1, func() {
			col := metrics.NewCollector(metrics.CollectorOptions{Procs: 128, Sketch: true})
			res, err := RunStream("synth", 128, core.NewSliceStream(jobs), sched.NewEASY(), Options{
				DiscardOutcomes: true,
				Observers:       []Observer{col},
			})
			if err != nil || res.NeverSubmitted != 0 {
				t.Fatalf("RunStream: err %v, never submitted %d", err, res.NeverSubmitted)
			}
			if rep := col.Report(); rep.Jobs != len(jobs) {
				t.Fatalf("collector saw %d jobs, want %d", rep.Jobs, len(jobs))
			}
		})
	}
	half, full := replay(jobs[:n/2]), replay(jobs)
	perJob := (full - half) / (n - n/2)
	t.Logf("%v allocs per %d-job run, %v per %d-job run: %.4f per job", half, n/2, full, n, perJob)
	if perJob > 0.01 {
		t.Fatalf("RunStream: %.4f allocs per job, want <= 0.01", perJob)
	}
}
