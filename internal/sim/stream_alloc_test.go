package sim

import (
	"math"
	"runtime"
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
// allocation constant at zero. With outcomes discarded and a sketch
// collector, an arrival, a start and a finish draw only on pools, slabs
// and buffers the run already holds, and the simulator recycles each
// job's slot and outcome record once the job is done, so nothing
// allocates in proportion to the trace. The constant is the slope
// between a 10k-job and a 20k-job replay of the same stream, so the
// run's fixed set-up (engine, machine, collector, and pools and slabs
// sized by the peak number of jobs in flight, ~160 allocations)
// cancels out. Each side is the fewest allocations of three replays:
// every Go map draws a random hash seed, and with some seeds the maps
// that churn an entry per job (running, outcomes, EASY's started)
// grow their tables once more in a run, which adds two allocations to
// about one replay in twenty, with or without the garbage collector.
func TestRunStreamAllocsPerJob(t *testing.T) {
	const n = 20000
	jobs := synthStreamJobs(n)
	half, full := fewestReplayAllocs(t, jobs[:n/2]), fewestReplayAllocs(t, jobs)
	perJob := (full - half) / (n - n/2)
	t.Logf("%v allocs per %d-job run, %v per %d-job run: %.4f per job", half, n/2, full, n, perJob)
	if perJob > 0 {
		t.Fatalf("RunStream: %.4f allocs per job, want 0", perJob)
	}
}

// burstStreamJobs builds n jobs shaped like synthStreamJobs that arrive
// in bursts of 1,000 at one instant, 10^6 s apart: long enough for 128
// nodes to drain each burst, so the number of jobs in flight swings
// from zero to 1,000 and back once per burst, four slab blocks deep.
func burstStreamJobs(n int) []*core.Job {
	const burst, gap = 1000, 1_000_000
	jobs := synthStreamJobs(n)
	for i, j := range jobs {
		j.Submit = int64(i/burst) * gap
	}
	return jobs
}

// TestRunStreamBurstBytesPerJob holds the streaming replay's heap bytes
// per job near zero when the jobs in flight swing far past one slab
// block again and again. The simulator's slabs and EASY's queue arrays
// reuse every slot they have handed out, so once a run has swung to its
// peak, later bursts allocate nothing of their own; a simulator that
// dropped slots it freed would allocate them again on every swing, up
// to ~270 B per job (a job copy and an outcome record). The constant is
// the slope of runtime.MemStats.TotalAlloc between 10 and 20 bursts,
// the smallest of three replays each. Unlike the steady stream's, the
// allocation count is not pinned at zero: with a thousand entries
// coming and going at a time, the Go 1.24 map that indexes the
// outcomes of jobs in flight collects deletion tombstones and now and
// then grows a table to shed them (0.1–1.1 B per job here), so the
// count still creeps up with the number of bursts.
func TestRunStreamBurstBytesPerJob(t *testing.T) {
	const small, large = 10000, 20000
	jobs := burstStreamJobs(large)
	bs, bl := fewestReplayBytes(t, jobs[:small]), fewestReplayBytes(t, jobs)
	perJob := (float64(bl) - float64(bs)) / (large - small)
	t.Logf("%d B per %d-job replay, %d B per %d-job replay: %.2f B per job", bs, small, bl, large, perJob)
	if perJob > 4 {
		t.Fatalf("RunStream over bursts: %.2f B per job, want <= 4", perJob)
	}
}

// TestSlabReusesEverySlot swings a slab from empty to 2,000 elements in
// use and back: after the first swing, which allocates the blocks,
// later swings must allocate nothing, so put keeps every element it is
// handed, however many that is.
func TestSlabReusesEverySlot(t *testing.T) {
	var s slab[core.Job]
	held := make([]*core.Job, 2000)
	swing := func() {
		for i := range held {
			held[i] = s.get()
		}
		for _, p := range held {
			s.put(p)
		}
	}
	swing()
	if allocs := testing.AllocsPerRun(10, swing); allocs != 0 {
		t.Fatalf("%v allocations per swing after the first, want 0", allocs)
	}
}

// TestReplayKeepsNothingAfterStreamEnds replays one 1,000-job burst
// whose jobs all arrive at once, so the stream ends before any job
// finishes. Nothing draws on the slabs after that, so the final drain
// must leave both free lists empty instead of filling them with slots
// the run never uses again.
func TestReplayKeepsNothingAfterStreamEnds(t *testing.T) {
	sm, err := newReplay("burst", 128, sched.NewEASY(), Options{DiscardOutcomes: true})
	if err != nil {
		t.Fatal(err)
	}
	sm.ownsJobs = true
	res, err := sm.replay(core.NewSliceStream(burstStreamJobs(1000)))
	if err != nil || res.NeverSubmitted != 0 {
		t.Fatalf("replay: err %v, never submitted %d", err, res.NeverSubmitted)
	}
	if jobs, outcomes := len(sm.jobSlab.free), len(sm.outcomeSlab.free); jobs != 0 || outcomes != 0 {
		t.Fatalf("free lists hold %d job slots and %d outcome records after the stream ended, want 0", jobs, outcomes)
	}
}

// fewestReplayAllocs counts the allocations of a sketch-collected EASY
// replay of jobs with outcomes discarded, the fewest of three replays.
func fewestReplayAllocs(t *testing.T, jobs []*core.Job) float64 {
	fewest := math.Inf(1)
	for range 3 {
		fewest = min(fewest, testing.AllocsPerRun(1, func() { replaySketch(t, jobs) }))
	}
	return fewest
}

// fewestReplayBytes measures the heap bytes the same replay allocates,
// the fewest of three replays.
func fewestReplayBytes(t *testing.T, jobs []*core.Job) uint64 {
	fewest := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replaySketch(t, jobs)
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.TotalAlloc-before.TotalAlloc)
	}
	return fewest
}

// replaySketch replays jobs through EASY on 128 nodes with outcomes
// discarded and a sketch collector.
func replaySketch(t *testing.T, jobs []*core.Job) {
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
}
