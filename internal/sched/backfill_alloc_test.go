package sched

import (
	"testing"

	"parsched/internal/core"
)

// allocContext is a Context that allocates nothing once its running
// buffer has grown, so allocation tests measure the scheduler alone.
type allocContext struct {
	now     int64
	total   int
	free    int
	epoch   uint64
	running []RunningJob // ascending ExpEnd
}

func (c *allocContext) Now() int64                          { return c.now }
func (c *allocContext) TotalProcs() int                     { return c.total }
func (c *allocContext) FreeProcs() int                      { return c.free }
func (c *allocContext) CanStart(j *core.Job, size int) bool { return size <= c.free }
func (c *allocContext) Running() []RunningJob               { return c.running }
func (c *allocContext) RunningEpoch() uint64                { return c.epoch }
func (c *allocContext) Estimate(j *core.Job) int64          { return j.EstimateOrRuntime() }
func (c *allocContext) Outages() []Window                   { return nil }
func (c *allocContext) Reservations() []Window              { return nil }
func (c *allocContext) StartShared(*core.Job, float64)      { panic("allocContext: time sharing") }
func (c *allocContext) SetRate(*core.Job, float64)          { panic("allocContext: time sharing") }

func (c *allocContext) Start(j *core.Job, size int) {
	r := RunningJob{Job: j, Size: size, Start: c.now, ExpEnd: c.now + c.Estimate(j)}
	i := len(c.running)
	c.running = append(c.running, r)
	for ; i > 0 && c.running[i-1].ExpEnd > r.ExpEnd; i-- {
		c.running[i] = c.running[i-1]
	}
	c.running[i] = r
	c.free -= size
	c.epoch++
}

// finishFirst completes the running job with the earliest expected end.
func (c *allocContext) finishFirst(s Scheduler) {
	r := c.running[0]
	c.running = append(c.running[:0], c.running[1:]...)
	c.free += r.Size
	c.epoch++
	s.OnFinish(c, r.Job)
}

// TestEASYOnSubmitSteadyStateAllocs pins EASY's arrival path at zero
// allocations once its buffers have grown: a job that starts at once
// is popped off the queue head, and the next arrival must reuse that
// front space rather than grow the queue arrays.
func TestEASYOnSubmitSteadyStateAllocs(t *testing.T) {
	const pool = 64
	jobs := make([]*core.Job, pool)
	for i := range jobs {
		jobs[i] = &core.Job{ID: int64(i + 1), Size: 1 + i%3, Runtime: 100, Estimate: 100 + int64(i%7)}
	}
	ctx := &allocContext{total: 8, free: 8}
	e := NewEASY()
	next := 0
	cycle := func() {
		ctx.now += 10
		e.OnSubmit(ctx, jobs[next%pool])
		next++
		ctx.finishFirst(e)
	}
	for i := 0; i < 2*pool; i++ {
		cycle() // warm up: started-job index, profile buffers, queue arrays
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("EASY submit/start/finish cycle: %v allocs, want 0", allocs)
	}
	if q := e.Queued(); len(q) != 0 {
		t.Fatalf("queue should drain every cycle, holds %d jobs", len(q))
	}
}
