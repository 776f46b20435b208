package parsched

// Streaming-replay benchmarks: a synthesized SWF log replayed through
// the pull-based pipeline (trace.OpenStream → sim.RunStream) with
// sketch-mode metrics. Each op covers the whole pipeline — statistics
// pass, cleaning scan, simulation — so ns/op is end-to-end
// trace-to-report latency. B/op and allocs/op are the memory story:
// records are scanned in place, the trace reader refills one job, the
// simulator copies each job into a slot it recycles once the job is
// done and recycles each final outcome's record, and arrival events,
// run states and queue arrays are reused. So B/op and allocs/op are a
// fixed set-up sized by the jobs in flight (about 200 allocations),
// however long the trace is, and so is peak residency.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"parsched/internal/metrics"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/workload/trace"
)

// streamBenchJobs is sized so one op replays a full million-job log —
// the scale the streaming pipeline exists for.
const streamBenchJobs = 1_000_000

// writeSyntheticSWF generates a clean, sorted, feedback-free SWF log:
// the shape ScanStats certifies streamable. Sizes and runtimes come
// from a fixed LCG so every run benchmarks the same log; the arrival
// spacing targets a moderate offered load on 128 nodes so the queue
// stays realistic rather than degenerate.
func writeSyntheticSWF(path string, jobs int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, ";Computer: stream-bench")
	fmt.Fprintln(w, ";MaxNodes: 128")
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	var submit int64
	for i := 1; i <= jobs; i++ {
		size := 1 + next(32)
		runtime := 60 + next(1200)
		estimate := runtime + next(runtime+1)
		// Mean job area is ~16.5 procs × ~660 s ≈ 10.9k proc·s; a mean
		// gap of ~122 s puts the offered load near 0.7 on 128 nodes —
		// busy, but not a queue that grows with the trace.
		submit += int64(60 + next(125))
		fmt.Fprintf(w, "%d %d -1 %d %d -1 -1 %d %d -1 1 %d 1 1 1 1 -1 -1\n",
			i, submit, runtime, size, size, estimate, 1+next(40))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// streamBenchLogs holds the synthesized logs by job count, each written
// once per benchmark process, outside any timer.
var streamBenchLogs = map[int]string{}

func streamBenchLog(b *testing.B, jobs int) string {
	b.Helper()
	if path, ok := streamBenchLogs[jobs]; ok {
		return path
	}
	dir, err := os.MkdirTemp("", "parsched-stream-bench")
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("synthetic-%d.swf", jobs))
	if err := writeSyntheticSWF(path, jobs); err != nil {
		b.Fatal(err)
	}
	streamBenchLogs[jobs] = path
	return path
}

// replayStream runs the full streaming pipeline once over the log at
// path, which holds jobs jobs.
func replayStream(tb testing.TB, path string, s sched.Scheduler, jobs int) {
	tb.Helper()
	src, err := trace.OpenStream(path)
	if err != nil {
		tb.Fatal(err)
	}
	if !src.Streamable() {
		tb.Fatal("synthetic log must be streamable")
	}
	jr, err := src.Stream(0)
	if err != nil {
		tb.Fatal(err)
	}
	defer jr.Close()
	col := metrics.NewCollector(metrics.CollectorOptions{
		Scheduler: s.Name(), Workload: src.Name, Procs: src.MaxNodes(),
		Sketch: true, // O(1) metric state; exact mode would retain 3 floats/job
	})
	res, err := sim.RunStream(src.Name, src.MaxNodes(), jr, s, sim.Options{
		DiscardOutcomes: true,
		Observers:       []sim.Observer{col},
	})
	if err != nil {
		tb.Fatal(err)
	}
	rep := col.Report()
	if rep.Jobs != jobs || res.NeverSubmitted != 0 {
		tb.Fatalf("replay lost jobs: reported %d of %d, never-submitted %d", rep.Jobs, jobs, res.NeverSubmitted)
	}
}

// BenchmarkStreamReplay1M is the headline number: one million jobs,
// EASY backfilling, full pipeline per op. Divide allocs/op by 1e6 for
// the per-job allocation constant.
func BenchmarkStreamReplay1M(b *testing.B) {
	path := streamBenchLog(b, streamBenchJobs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayStream(b, path, sched.NewEASY(), streamBenchJobs)
	}
}

// BenchmarkStreamReplay100k replays the first 100k jobs of the same log
// (the generator is sequential, so the smaller log is a prefix of the
// larger): fast enough for the CI regression guard, and long enough
// that any per-job allocation shows in its B/op and allocs/op.
func BenchmarkStreamReplay100k(b *testing.B) {
	const jobs = 100_000
	path := streamBenchLog(b, jobs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayStream(b, path, sched.NewEASY(), jobs)
	}
}

// BenchmarkStreamReplay1MCons replays the same log through
// conservative backfilling (every queued job holds a reservation — the
// heavier profile workload).
func BenchmarkStreamReplay1MCons(b *testing.B) {
	path := streamBenchLog(b, streamBenchJobs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayStream(b, path, sched.NewConservative(), streamBenchJobs)
	}
}

// TestStreamReplayBytesPerJob pins the heap bytes the streaming replay
// allocates per job near zero. The trace reader refills one job and the
// simulator recycles each job's slot and outcome record, so what a
// replay allocates is a set-up sized by the jobs in flight, not by the
// trace. The constant is the slope of runtime.MemStats.TotalAlloc
// between a 20k-job and a 40k-job replay of the synthesized log (the
// smallest of three replays each, since only other goroutines can add
// to a reading), so the set-up cancels out.
func TestStreamReplayBytesPerJob(t *testing.T) {
	dir := t.TempDir()
	replayBytes := func(jobs int) uint64 {
		path := filepath.Join(dir, fmt.Sprintf("synthetic-%d.swf", jobs))
		if err := writeSyntheticSWF(path, jobs); err != nil {
			t.Fatal(err)
		}
		best := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			replayStream(t, path, sched.NewEASY(), jobs)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const small, large = 20_000, 40_000
	bs, bl := replayBytes(small), replayBytes(large)
	perJob := (float64(bl) - float64(bs)) / (large - small)
	t.Logf("%d B per %d-job replay, %d B per %d-job replay: %.2f B per job", bs, small, bl, large, perJob)
	if perJob > 4 {
		t.Fatalf("streaming replay allocates %.2f B per job, want <= 4", perJob)
	}
}
