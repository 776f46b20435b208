package sched

import (
	"sort"

	"parsched/internal/core"
)

// Order is a queue-ordering policy for QueueScheduler: it returns true
// when a should run before b. now is the current time (dynamic
// priorities like expansion factor need it).
type Order func(ctx Context, now int64, a, b *core.Job) bool

// QueueScheduler is the family of non-backfilling queue schedulers:
// jobs wait in a queue ordered by a policy; the scheduler starts jobs
// from the head while they fit. With Bypass (first-fit), jobs behind a
// blocked head may start if they fit, which improves utilization at the
// cost of possible starvation.
type QueueScheduler struct {
	name   string
	order  Order
	bypass bool
	// DrainAware makes the scheduler refuse to start jobs whose
	// estimated end crosses the start of a known full-machine outage
	// (scheduling "such that the system is drained up to the outage").
	DrainAware bool

	queue []*core.Job
}

// The queue-scheduler families self-register: one family per ordering
// policy, each accepting the drain flag (plus the shared decorator
// parameters Register appends).
func init() {
	queueFamilies := []struct {
		name string
		doc  string
		make func() *QueueScheduler
	}{
		{"fcfs", "first-come first-served", NewFCFS},
		{"firstfit", "FCFS order with bypass: any queued job that fits may start", NewFirstFit},
		{"sjf", "shortest job first by runtime estimate", NewSJF},
		{"ljf", "longest job first by runtime estimate", NewLJF},
		{"smallest", "smallest job first by processor count", NewSmallestFirst},
		{"lxf", "largest expansion factor first (dynamic slowdown priority)", NewLXF},
	}
	for _, qf := range queueFamilies {
		ctor := qf.make
		Register(Family{
			Name: qf.name,
			Doc:  qf.doc,
			Params: []Param{
				{Name: "drain", Kind: BoolParam,
					Doc: "refuse starts that would cross an announced full-machine outage"},
			},
			New: func(a Args) (Scheduler, error) {
				s := ctor()
				s.DrainAware = a.Bool("drain")
				return s, nil
			},
		})
	}
}

// NewFCFS returns first-come-first-served.
func NewFCFS() *QueueScheduler {
	return &QueueScheduler{name: "fcfs", order: nil}
}

// NewFirstFit returns FCFS order with bypass: any queued job that fits
// may start (no reservation for the head, starvation possible).
func NewFirstFit() *QueueScheduler {
	return &QueueScheduler{name: "firstfit", order: nil, bypass: true}
}

// NewSJF returns shortest-job-first by runtime estimate.
func NewSJF() *QueueScheduler {
	return &QueueScheduler{name: "sjf", order: func(ctx Context, _ int64, a, b *core.Job) bool {
		ea, eb := ctx.Estimate(a), ctx.Estimate(b)
		if ea != eb {
			return ea < eb
		}
		return a.ID < b.ID
	}}
}

// NewLJF returns longest-job-first by runtime estimate.
func NewLJF() *QueueScheduler {
	return &QueueScheduler{name: "ljf", order: func(ctx Context, _ int64, a, b *core.Job) bool {
		ea, eb := ctx.Estimate(a), ctx.Estimate(b)
		if ea != eb {
			return ea > eb
		}
		return a.ID < b.ID
	}}
}

// NewSmallestFirst orders by processor count ascending (small jobs slip
// in first), a classic utilization-friendly but large-job-hostile
// policy.
func NewSmallestFirst() *QueueScheduler {
	return &QueueScheduler{name: "smallest", order: func(_ Context, _ int64, a, b *core.Job) bool {
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		return a.ID < b.ID
	}}
}

// NewLXF returns largest-expansion-factor-first: priority to the job
// whose (wait + estimate) / estimate is largest — a dynamic
// slowdown-oriented policy.
func NewLXF() *QueueScheduler {
	return &QueueScheduler{name: "lxf", order: func(ctx Context, now int64, a, b *core.Job) bool {
		xa := expansion(now, a, ctx.Estimate(a))
		xb := expansion(now, b, ctx.Estimate(b))
		if xa != xb {
			return xa > xb
		}
		return a.ID < b.ID
	}}
}

func expansion(now int64, j *core.Job, est int64) float64 {
	if est < 1 {
		est = 1
	}
	wait := now - j.Submit
	if wait < 0 {
		wait = 0
	}
	return float64(wait+est) / float64(est)
}

// Name implements Scheduler. The drain-aware variant names itself by
// its canonical spec so result tables distinguish it from the base
// policy.
//
//schedlint:coldpath reporting: result labeling, once per run
func (q *QueueScheduler) Name() string {
	if q.DrainAware {
		return q.name + "(drain)"
	}
	return q.name
}

// Queued implements QueueReporter.
func (q *QueueScheduler) Queued() []*core.Job {
	return append([]*core.Job(nil), q.queue...)
}

// OnSubmit implements Scheduler.
func (q *QueueScheduler) OnSubmit(ctx Context, j *core.Job) {
	q.queue = append(q.queue, j)
	q.schedule(ctx)
}

// OnFinish implements Scheduler.
func (q *QueueScheduler) OnFinish(ctx Context, _ *core.Job) { q.schedule(ctx) }

// OnChange implements Scheduler.
func (q *QueueScheduler) OnChange(ctx Context) { q.schedule(ctx) }

func (q *QueueScheduler) schedule(ctx Context) {
	now := ctx.Now()
	if q.order != nil {
		ord := q.order
		sort.SliceStable(q.queue, func(i, k int) bool { return ord(ctx, now, q.queue[i], q.queue[k]) })
	}
	for len(q.queue) > 0 {
		started := false
		for i, j := range q.queue {
			if i > 0 && !q.bypass {
				break
			}
			if !ctx.CanStart(j, j.Size) {
				continue
			}
			if q.DrainAware && crossesFullOutage(ctx, j) {
				continue
			}
			ctx.Start(j, j.Size)
			q.queue = append(q.queue[:i], q.queue[i+1:]...)
			started = true
			break
		}
		if !started {
			return
		}
	}
}

// crossesFullOutage reports whether starting j now would run into an
// announced outage that takes down (essentially) the whole machine
// before the job's estimated end — the drain condition.
func crossesFullOutage(ctx Context, j *core.Job) bool {
	now := ctx.Now()
	end := now + ctx.Estimate(j)
	for _, w := range ctx.Outages() {
		if w.Start <= now {
			continue // ongoing; capacity already reflects it
		}
		if w.Procs*10 >= ctx.TotalProcs()*9 && w.Start < end {
			return true
		}
	}
	return false
}
