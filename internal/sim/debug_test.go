//go:build debugchecks

package sim

import (
	"strings"
	"testing"

	"parsched/internal/core"
	"parsched/internal/des"
	"parsched/internal/sched"
)

// Compiled only under -tags debugchecks: corrupts the runOrder mirror
// on purpose and requires verifyRunOrder to catch the divergence.

func debugInstance(t *testing.T) *Instance {
	t.Helper()
	sm, err := NewInstance(des.NewEngine(0), "debug", 16, sched.NewFCFS(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

func debugRunState(id, expEnd int64) *runState {
	return &runState{job: &core.Job{ID: id}, expEnd: expEnd}
}

func TestDebugRunOrderCorruptionCaught(t *testing.T) {
	sm := debugInstance(t)
	for i := int64(1); i <= 4; i++ {
		rs := debugRunState(i, i*100)
		sm.running[rs.job.ID] = rs
		sm.insertRunning(rs)
	}
	// Swap two entries: the next membership change must detect the
	// broken (ExpEnd, job ID) order.
	sm.runOrder[0], sm.runOrder[3] = sm.runOrder[3], sm.runOrder[0]
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "runOrder not sorted") {
			t.Fatalf("panic %v; want one containing %q", r, "runOrder not sorted")
		}
	}()
	rs := debugRunState(5, 500)
	sm.running[rs.job.ID] = rs
	sm.insertRunning(rs)
}

func TestDebugRunOrderMembershipDivergenceCaught(t *testing.T) {
	sm := debugInstance(t)
	rs := debugRunState(1, 100)
	sm.running[rs.job.ID] = rs
	sm.insertRunning(rs)
	// Drop the job from the map but not the mirror: the next
	// transition must see the length divergence.
	delete(sm.running, rs.job.ID)
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "running set has") {
			t.Fatalf("panic %v; want one containing %q", r, "running set has")
		}
	}()
	other := debugRunState(2, 200)
	sm.running[other.job.ID] = other
	sm.insertRunning(other)
}

// retainer breaks the OnFinish contract on purpose: it keeps the job
// OnFinish hands it and, at its next callback, records what that job
// then holds.
type retainer struct {
	sched.Scheduler
	kept  *core.Job
	later []core.Job
}

func (r *retainer) look() {
	if r.kept != nil {
		r.later = append(r.later, *r.kept)
		r.kept = nil
	}
}

func (r *retainer) OnSubmit(ctx sched.Context, j *core.Job) {
	r.look()
	r.Scheduler.OnSubmit(ctx, j)
}

func (r *retainer) OnFinish(ctx sched.Context, j *core.Job) {
	r.look()
	r.Scheduler.OnFinish(ctx, j)
	r.kept = j
}

func (r *retainer) OnChange(ctx sched.Context) {
	r.look()
	r.Scheduler.OnChange(ctx)
}

// TestRecycledJobIsPoisoned: a streamed job's slot is poisoned when the
// simulator recycles it, so a scheduler that reads a job after its
// final OnFinish sees a negative ID and a size no machine has instead
// of a plausible stale copy. Each job finishes before the next one
// arrives, and the pump pulls one job ahead, so at the retainer's next
// callback (the next arrival) the freed slot has not been reused yet.
func TestRecycledJobIsPoisoned(t *testing.T) {
	const nodes = 4
	jobs := []*core.Job{
		{ID: 1, Submit: 0, Size: 2, Runtime: 10},
		{ID: 2, Submit: 100, Size: 2, Runtime: 10},
		{ID: 3, Submit: 200, Size: 2, Runtime: 10},
	}
	r := &retainer{Scheduler: sched.NewFCFS()}
	if _, err := RunStream("poison", nodes, core.NewSliceStream(jobs), r, Options{DiscardOutcomes: true}); err != nil {
		t.Fatal(err)
	}
	if len(r.later) != 2 {
		t.Fatalf("retainer looked at %d kept jobs, want 2", len(r.later))
	}
	for _, j := range r.later {
		if j.ID >= 0 || j.Size <= nodes {
			t.Fatalf("a job read after its OnFinish holds %+v, want the poison (negative ID, size above %d nodes)", j, nodes)
		}
	}
}
