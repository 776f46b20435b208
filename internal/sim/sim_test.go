package sim

import (
	"testing"

	"parsched/internal/core"
	"parsched/internal/metrics"
	"parsched/internal/model"
	"parsched/internal/model/lublin"
	"parsched/internal/outage"
	"parsched/internal/sched"
	"parsched/internal/stats"
)

// wl builds a workload from (submit, size, runtime) triples on a
// machine of nodes processors.
func wl(nodes int, specs ...[3]int64) *core.Workload {
	w := &core.Workload{Name: "test", MaxNodes: nodes}
	for i, s := range specs {
		w.Jobs = append(w.Jobs, &core.Job{
			ID: int64(i + 1), Submit: s[0], Size: int(s[1]), Runtime: s[2], User: 1,
		})
	}
	return w
}

func mustRun(t *testing.T, w *core.Workload, s sched.Scheduler, opts Options) *Result {
	t.Helper()
	res, err := Run(w, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func outcomeByID(res *Result, id int64) metrics.Outcome {
	for _, o := range res.Outcomes {
		if o.JobID == id {
			return o
		}
	}
	return metrics.Outcome{JobID: -1}
}

func TestFCFSSequence(t *testing.T) {
	// Two 8-proc jobs on an 8-proc machine: strictly sequential.
	w := wl(8, [3]int64{0, 8, 100}, [3]int64{10, 8, 100})
	res := mustRun(t, w, sched.NewFCFS(), Options{})
	o1, o2 := outcomeByID(res, 1), outcomeByID(res, 2)
	if o1.Start != 0 || o1.End != 100 {
		t.Fatalf("job 1: %+v", o1)
	}
	if o2.Start != 100 || o2.End != 200 {
		t.Fatalf("job 2: %+v", o2)
	}
	if o2.Wait() != 90 {
		t.Fatalf("job 2 wait = %d", o2.Wait())
	}
}

func TestParallelStart(t *testing.T) {
	w := wl(16, [3]int64{0, 8, 100}, [3]int64{0, 8, 100})
	res := mustRun(t, w, sched.NewFCFS(), Options{})
	if outcomeByID(res, 2).Start != 0 {
		t.Fatal("both jobs fit simultaneously")
	}
}

func TestEASYBeatsFCFSOnBackfillableWorkload(t *testing.T) {
	// Classic scenario: wide job blocks FCFS; EASY backfills the small
	// ones.
	specs := [][3]int64{
		{0, 14, 1000}, // wide long
		{1, 14, 100},  // wide short: blocked either way
		{2, 2, 50},    // small: EASY backfills
		{3, 2, 50},    // small
	}
	w1 := wl(16, specs...)
	w2 := wl(16, specs...)
	fcfs := mustRun(t, w1, sched.NewFCFS(), Options{})
	easy := mustRun(t, w2, sched.NewEASY(), Options{})
	rf := fcfs.Report(16)
	re := easy.Report(16)
	if re.Wait.Mean >= rf.Wait.Mean {
		t.Fatalf("EASY mean wait %v should beat FCFS %v", re.Wait.Mean, rf.Wait.Mean)
	}
	// Job 3 backfills into the 2 free processors at once; job 4 takes
	// its place when it finishes (machine is 14+2 = 16 full meanwhile).
	if outcomeByID(easy, 3).Start != 2 || outcomeByID(easy, 4).Start != 52 {
		t.Fatalf("backfill starts: %+v %+v", outcomeByID(easy, 3), outcomeByID(easy, 4))
	}
}

func TestSafetyNoOversubscription(t *testing.T) {
	// Brute-force safety check across schedulers on a random workload:
	// at no instant may allocated processors exceed the machine.
	// (The cluster panics on oversubscription, so simply running is the
	// assertion; we also check outcome sanity.)
	m := lublin.Default()
	w := m.Generate(model.Config{MaxNodes: 64, Jobs: 400, Seed: 3, Load: 0.9, EstimateFactor: 2})
	for _, name := range []string{"fcfs", "sjf", "easy", "cons", "firstfit", "lxf"} {
		s, err := sched.New(name)
		if err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, w, s, Options{})
		r := res.Report(64)
		if r.Finished != 400 {
			t.Errorf("%s: finished %d/400", name, r.Finished)
		}
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Errorf("%s: utilization %v out of range", name, r.Utilization)
		}
		for _, o := range res.Outcomes {
			if o.Start >= 0 && o.Start < o.Submit {
				t.Errorf("%s: job %d started before submit", name, o.JobID)
			}
			if o.Finished() && o.End < o.Start {
				t.Errorf("%s: job %d ends before start", name, o.JobID)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	m := lublin.Default()
	w := m.Generate(model.Config{MaxNodes: 32, Jobs: 300, Seed: 5, Load: 0.8})
	a := mustRun(t, w, sched.NewEASY(), Options{})
	b := mustRun(t, w, sched.NewEASY(), Options{})
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d differs between identical runs", i)
		}
	}
}

func TestWorkloadNotMutated(t *testing.T) {
	w := wl(8, [3]int64{0, 8, 100})
	w.Jobs[0].Class = core.Moldable
	w.Jobs[0].Speedup = core.AmdahlSpeedup{F: 0}
	w.Jobs[0].MinSize = 1
	before := *w.Jobs[0]
	mustRun(t, w, sched.NewMoldableEASY(), Options{})
	if *w.Jobs[0] != before {
		t.Fatal("simulation mutated the caller's workload")
	}
}

// TestRunStreamLeavesStreamJobsUntouched: RunStream makes Run's promise
// too. The moldable adapter rewrites Size, Runtime and Estimate of the
// jobs it molds, which must be the simulator's copies, never the jobs
// the stream handed over.
func TestRunStreamLeavesStreamJobsUntouched(t *testing.T) {
	jobs := synthStreamJobs(2000)
	before := make([]core.Job, len(jobs))
	for i, j := range jobs {
		j.Class = core.Moldable
		j.Speedup = core.AmdahlSpeedup{F: 0.05}
		j.MinSize, j.MaxSize = 1, j.Size
		before[i] = *j
	}
	s, err := sched.New("easy(mold)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStream("synth", 128, core.NewSliceStream(jobs), s, Options{DiscardOutcomes: true}); err != nil {
		t.Fatal(err)
	}
	mutated := 0
	for i, j := range jobs {
		if *j != before[i] {
			mutated++
		}
	}
	if mutated > 0 {
		t.Fatalf("RunStream mutated %d of the stream's %d jobs", mutated, len(jobs))
	}
}

func TestOutageKillsAndRestarts(t *testing.T) {
	// One 4-proc job running 0..1000; node 0 fails at t=500 for 100 s.
	w := wl(8, [3]int64{0, 4, 1000})
	olog := &outage.Log{Records: []outage.Record{
		{ID: 1, Announced: 500, Start: 500, End: 600, Kind: outage.CPUFailure, Nodes: []int64{0}},
	}}
	res := mustRun(t, w, sched.NewFCFS(), Options{Outages: olog})
	o := outcomeByID(res, 1)
	if o.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", o.Restarts)
	}
	if o.LostWork != 4*500 {
		t.Fatalf("lost work = %d, want 2000", o.LostWork)
	}
	// Restarted at 500 on the remaining 7 nodes (allocation picks
	// different nodes), runs the full 1000 again.
	if !o.Finished() || o.End != 1500 {
		t.Fatalf("outcome: %+v", o)
	}
}

func TestOutageDropPolicy(t *testing.T) {
	w := wl(8, [3]int64{0, 4, 1000})
	olog := &outage.Log{Records: []outage.Record{
		{ID: 1, Announced: 500, Start: 500, End: 600, Kind: outage.CPUFailure, Nodes: []int64{0}},
	}}
	res := mustRun(t, w, sched.NewFCFS(), Options{Outages: olog, DropKilled: true})
	o := outcomeByID(res, 1)
	if !o.Dropped || o.Finished() {
		t.Fatalf("drop policy ignored: %+v", o)
	}
	r := res.Report(8)
	if r.Dropped != 1 {
		t.Fatalf("report dropped = %d", r.Dropped)
	}
}

func TestOutageOnFreeNodeHarmless(t *testing.T) {
	w := wl(8, [3]int64{0, 4, 100})
	olog := &outage.Log{Records: []outage.Record{
		{ID: 1, Announced: 10, Start: 10, End: 50, Kind: outage.CPUFailure, Nodes: []int64{7}},
	}}
	res := mustRun(t, w, sched.NewFCFS(), Options{Outages: olog})
	o := outcomeByID(res, 1)
	if o.Restarts != 0 || o.End != 100 {
		t.Fatalf("unrelated outage affected the job: %+v", o)
	}
}

func TestMaintenanceDrainWithAwareScheduler(t *testing.T) {
	// Maintenance over the whole machine at t=100..200, announced at 0.
	// easy+win drains: a 150-second job submitted at t=0 must wait until
	// after the outage rather than start and be killed.
	olog := &outage.Log{Records: []outage.Record{
		{ID: 1, Announced: 0, Start: 100, End: 200, Kind: outage.Maintenance,
			Nodes: []int64{0, 1, 2, 3, 4, 5, 6, 7}},
	}}
	w := wl(8, [3]int64{0, 4, 150})
	aware := mustRun(t, w, sched.NewEASYWindows(), Options{Outages: olog})
	oa := outcomeByID(aware, 1)
	if oa.Restarts != 0 {
		t.Fatalf("aware scheduler let the job be killed: %+v", oa)
	}
	if oa.Start < 200 {
		t.Fatalf("aware scheduler started into the outage at %d", oa.Start)
	}

	naive := mustRun(t, w, sched.NewEASY(), Options{Outages: olog})
	on := outcomeByID(naive, 1)
	if on.Restarts == 0 {
		t.Fatalf("naive scheduler should have lost work: %+v", on)
	}
	if on.LostWork == 0 {
		t.Fatal("naive run must record lost work")
	}
}

func TestFeedbackClosedLoop(t *testing.T) {
	// Job 2 depends on job 1 with 50 s think time. Under feedback its
	// submit follows job 1's completion, not the recorded submit.
	w := wl(8, [3]int64{0, 8, 100}, [3]int64{10, 8, 100})
	w.Jobs[1].PrecedingJob = 1
	w.Jobs[1].ThinkTime = 50

	open := mustRun(t, w, sched.NewFCFS(), Options{})
	if outcomeByID(open, 2).Submit != 10 {
		t.Fatal("open loop must use recorded submit")
	}

	closed := mustRun(t, w, sched.NewFCFS(), Options{Feedback: true})
	o2 := outcomeByID(closed, 2)
	if o2.Submit != 150 {
		t.Fatalf("closed loop submit = %d, want 150 (end 100 + think 50)", o2.Submit)
	}
	if o2.Wait() != 0 {
		t.Fatalf("wait measured from effective submit: %d", o2.Wait())
	}
}

func TestFeedbackChainNeverSubmitted(t *testing.T) {
	// Dependent of a job that never finishes within the horizon.
	w := wl(8, [3]int64{0, 8, 1000}, [3]int64{10, 8, 100})
	w.Jobs[1].PrecedingJob = 1
	w.Jobs[1].ThinkTime = 0
	res := mustRun(t, w, sched.NewFCFS(), Options{Feedback: true, Horizon: 500})
	if res.NeverSubmitted != 1 {
		t.Fatalf("NeverSubmitted = %d", res.NeverSubmitted)
	}
}

func TestFeedbackReleaseAfterHorizonNeverSubmitted(t *testing.T) {
	// Job 1 ends at 100; its dependent is released 1000 s later, past
	// the horizon, so it never reaches the scheduler.
	w := wl(8, [3]int64{0, 8, 100}, [3]int64{10, 8, 100})
	w.Jobs[1].PrecedingJob = 1
	w.Jobs[1].ThinkTime = 1000
	res := mustRun(t, w, sched.NewFCFS(), Options{Feedback: true, Horizon: 500})
	if res.NeverSubmitted != 1 {
		t.Fatalf("NeverSubmitted = %d, want 1", res.NeverSubmitted)
	}
	if o := outcomeByID(res, 2); o.JobID != -1 {
		t.Fatalf("dependent released past the horizon has an outcome: %+v", o)
	}
}

func TestFeedbackDependentBehindHorizonCutArrival(t *testing.T) {
	// Job 3 depends on job 1 but follows job 2 in submit order, and job
	// 2 arrives after the horizon: the arrival cursor never reaches job
	// 3, yet job 1's completion at 10 releases it at 15. It must still
	// be reported, and only job 2 counts as never submitted.
	w := wl(8, [3]int64{0, 8, 10}, [3]int64{1000, 8, 10}, [3]int64{1000, 8, 10})
	w.Jobs[2].PrecedingJob = 1
	w.Jobs[2].ThinkTime = 5
	res := mustRun(t, w, sched.NewFCFS(), Options{Feedback: true, Horizon: 500})
	if o := outcomeByID(res, 3); o.JobID != 3 || o.Submit != 15 || !o.Finished() {
		t.Fatalf("job 3 outcome %+v, want submitted at 15 and finished", o)
	}
	if res.NeverSubmitted != 1 {
		t.Fatalf("NeverSubmitted = %d, want 1", res.NeverSubmitted)
	}
}

// TestReplayPrunesOutcomeMap: under DiscardOutcomes the kernel deletes
// each final outcome once observers have it, so a drained replay leaves
// the outcome map empty; a retaining run keeps one entry per submitted
// job.
func TestReplayPrunesOutcomeMap(t *testing.T) {
	jobs := synthStreamJobs(2000)
	for _, discard := range []bool{true, false} {
		seen := 0
		sm, err := newReplay("synth", 128, sched.NewEASY(), Options{
			DiscardOutcomes: discard,
			Observers:       []Observer{observerFunc(func(metrics.Outcome) { seen++ })},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sm.replay(core.NewSliceStream(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if seen != len(jobs) || res.NeverSubmitted != 0 {
			t.Fatalf("discard=%v: observers saw %d of %d jobs, %d never submitted", discard, seen, len(jobs), res.NeverSubmitted)
		}
		want := len(jobs)
		if discard {
			want = 0
		}
		if len(sm.outcomes) != want {
			t.Fatalf("discard=%v: %d outcome map entries after a drained replay, want %d", discard, len(sm.outcomes), want)
		}
	}
}

func TestReservationGrantAndRelease(t *testing.T) {
	// Empty machine: a reservation for 6 of 8 procs over [100, 200).
	w := wl(8, [3]int64{150, 4, 10}) // 4-proc job at t=150 cannot start (only 2 free)
	res := mustRun(t, w, sched.NewFCFS(), Options{
		Reservations: []sched.Reservation{{ID: 1, Procs: 6, Start: 100, End: 200}},
	})
	if len(res.Reservations) != 1 || !res.Reservations[0].Granted {
		t.Fatalf("reservation outcome: %+v", res.Reservations)
	}
	o := outcomeByID(res, 1)
	if o.Start != 200 {
		t.Fatalf("job should start when the reservation releases: %+v", o)
	}
}

func TestReservationDeniedWhenBusy(t *testing.T) {
	// FCFS (reservation-oblivious) fills the machine; the reservation
	// at t=100 cannot be granted.
	w := wl(8, [3]int64{0, 8, 1000})
	res := mustRun(t, w, sched.NewFCFS(), Options{
		Reservations: []sched.Reservation{{ID: 1, Procs: 4, Start: 100, End: 200}},
	})
	if res.Reservations[0].Granted {
		t.Fatal("reservation should fail on a full machine")
	}
}

func TestReservationAwareSchedulerHonors(t *testing.T) {
	// easy+win sees the reservation window and avoids starting a job
	// that would collide with it.
	w := wl(8, [3]int64{0, 8, 500}) // would overlap [100,200) reservation
	res := mustRun(t, w, sched.NewEASYWindows(), Options{
		Reservations: []sched.Reservation{{ID: 1, Procs: 8, Start: 100, End: 200}},
	})
	if !res.Reservations[0].Granted {
		t.Fatal("aware scheduler must leave room for the reservation")
	}
	o := outcomeByID(res, 1)
	if o.Start < 200 {
		t.Fatalf("job started at %d into the reservation", o.Start)
	}
}

func TestGangSimulation(t *testing.T) {
	// Two 8-proc jobs of 100 s work on an 8-proc machine under gang
	// scheduling with 2 slots: both run at half speed, both finish at
	// ~200 (vs 100 and 200 under FCFS).
	w := wl(8, [3]int64{0, 8, 100}, [3]int64{0, 8, 100})
	res := mustRun(t, w, sched.NewGang(2), Options{})
	o1, o2 := outcomeByID(res, 1), outcomeByID(res, 2)
	if !o1.Finished() || !o2.Finished() {
		t.Fatalf("gang jobs unfinished: %+v %+v", o1, o2)
	}
	if o1.End != 200 || o2.End != 200 {
		t.Fatalf("gang ends: %d %d, want 200 200", o1.End, o2.End)
	}
}

func TestGangFinishSpeedsUpRemaining(t *testing.T) {
	// Job 1: 100 s work; job 2: 300 s work. Shared until job 1 is done.
	// Phase 1: both at rate 1/2 until job1 completes at t=200 (100 work).
	// Job 2 then has 300-100=200 left at full rate: ends at 400.
	w := wl(8, [3]int64{0, 8, 100}, [3]int64{0, 8, 300})
	res := mustRun(t, w, sched.NewGang(2), Options{})
	o1, o2 := outcomeByID(res, 1), outcomeByID(res, 2)
	if o1.End != 200 {
		t.Fatalf("job 1 end = %d, want 200", o1.End)
	}
	if o2.End != 400 {
		t.Fatalf("job 2 end = %d, want 400", o2.End)
	}
}

func TestMemoryAwareScheduling(t *testing.T) {
	// 4 nodes with 1 GB, 4 with 4 GB. A job needing 2 GB/proc on 4
	// procs must wait for the big nodes even though small ones are free.
	mems := []int64{1 << 20, 1 << 20, 1 << 20, 1 << 20, 4 << 20, 4 << 20, 4 << 20, 4 << 20}
	w := &core.Workload{Name: "mem", MaxNodes: 8, Jobs: []*core.Job{
		{ID: 1, Submit: 0, Size: 4, Runtime: 100, User: 1, ReqMemPerProc: 2 << 20},
		{ID: 2, Submit: 0, Size: 4, Runtime: 100, User: 1, ReqMemPerProc: 2 << 20},
	}}
	res := mustRun(t, w, sched.NewFirstFit(), Options{NodeMem: mems, MemAware: true})
	o1, o2 := outcomeByID(res, 1), outcomeByID(res, 2)
	if o1.Start != 0 {
		t.Fatalf("job 1 should take the 4 big nodes: %+v", o1)
	}
	if o2.Start != 100 {
		t.Fatalf("job 2 must wait for big nodes: %+v", o2)
	}
}

func TestHorizonTruncation(t *testing.T) {
	w := wl(8, [3]int64{0, 8, 100}, [3]int64{0, 8, 100})
	res := mustRun(t, w, sched.NewFCFS(), Options{Horizon: 150})
	r := res.Report(8)
	if r.Finished != 1 || r.Unfinished != 1 {
		t.Fatalf("horizon truncation wrong: %+v", r)
	}
}

func TestInvalidWorkloadRejected(t *testing.T) {
	w := wl(8, [3]int64{0, 16, 100}) // size > machine
	if _, err := Run(w, sched.NewFCFS(), Options{}); err == nil {
		t.Fatal("oversized job accepted")
	}
}

func TestEstimatesVisibleToScheduler(t *testing.T) {
	// With terrible estimates EASY backfills less: compare perfect vs
	// estimate-driven shadow behaviour end-to-end.
	rng := stats.NewRNG(1)
	w := &core.Workload{Name: "est", MaxNodes: 16}
	id := int64(1)
	add := func(submit int64, size int, rt, est int64) {
		w.Jobs = append(w.Jobs, &core.Job{ID: id, Submit: submit, Size: size,
			Runtime: rt, Estimate: est, User: 1 + id%4})
		id++
	}
	_ = rng
	add(0, 12, 1000, 1000) // running: 4 procs left free
	add(1, 14, 100, 100)   // head: blocked; shadow at 1000, extra = 16-14 = 2
	add(2, 4, 400, 3000)   // wildly overestimated backfill candidate (4 > extra)
	resTrue := mustRun(t, w, sched.NewEASY(), Options{PerfectEstimates: true})
	resEst := mustRun(t, w, sched.NewEASY(), Options{})
	// With perfect estimates the 400s job ends at 402 < 1000 (shadow), so
	// it backfills. With the 3000s estimate it appears to delay the head
	// and does not fit beside it (extra is only 2 procs).
	if outcomeByID(resTrue, 3).Start != 2 {
		t.Fatalf("perfect estimates: %+v", outcomeByID(resTrue, 3))
	}
	if outcomeByID(resEst, 3).Start == 2 {
		t.Fatal("overestimate should block the backfill")
	}
}

func TestUtilizationMatchesLoadAtSaturationFreeRegime(t *testing.T) {
	// At moderate load with EASY, utilization over the makespan should
	// be in the same ballpark as the offered load.
	m := lublin.Default()
	w := m.Generate(model.Config{MaxNodes: 64, Jobs: 1500, Seed: 7, Load: 0.6})
	res := mustRun(t, w, sched.NewEASY(), Options{PerfectEstimates: true})
	r := res.Report(64)
	if r.Utilization < 0.4 || r.Utilization > 0.8 {
		t.Fatalf("utilization %v far from offered load 0.6", r.Utilization)
	}
}
