package main

// The traced phase's span recorder and the layer wrappers it hangs off.
// Every wrapper sits around a public entry point of one layer
// (core.JobStream, sched.Scheduler, sched.Context, sim.Observer), so the
// traced run drives the unmodified program through the same calls; the
// tests prove the wrappers change no scheduling decision by comparing
// traced and untraced digests. Spans are folded into fixed-size
// per-kind aggregates as they close, so tracing allocates nothing per
// call and the aggregates are read once, when the run ends.

import (
	"math/bits"
	"time"

	"parsched/internal/core"
	"parsched/internal/metrics"
	"parsched/internal/sched"
	"parsched/internal/sim"
)

type spanKind int

const (
	spanRun     spanKind = iota // sim.Run / sim.RunStream, the whole event loop
	spanNext                    // core.JobStream.Next inside RunStream
	spanSubmit                  // Scheduler.OnSubmit
	spanFinish                  // Scheduler.OnFinish
	spanChange                  // Scheduler.OnChange
	spanStart                   // Context.Start: sim bookkeeping, cluster allocate, finish event
	spanObserve                 // Observer.Observe: the metrics collector
	spanReport                  // Collector.Report
	numSpans
)

// histBuckets covers every int64 nanosecond duration with four
// log-linear buckets per octave (about ±11% resolution).
const histBuckets = 256

type spanAgg struct {
	count       uint64
	total, self int64 // nanoseconds
	hist        [histBuckets]uint64
}

type frame struct {
	kind         spanKind
	start, child int64
	// starts is the tracer's start count when a scheduler callback
	// began, to tell fruitless callbacks apart.
	starts uint64
}

// tracer records the spans of the traced ops. It is single-threaded,
// like the simulations it observes.
type tracer struct {
	base  time.Time
	aggs  [numSpans]spanAgg
	stack [8]frame
	depth int

	// Context counters: calls the schedulers make back into the machine.
	canStart, runningReads, starts uint64
	// fruitless counts scheduler callbacks that started no job.
	fruitless uint64
	// Totals over the traced ops, filled by the workloads.
	ops, jobs, events uint64
	// cells accumulates the battery's per-experiment wall time.
	cells []time.Duration
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(k spanKind) {
	t.stack[t.depth] = frame{kind: k, start: t.now()}
	t.depth++
}

// end closes the innermost span: its duration minus the time its child
// spans covered is its self time, and the whole duration is child time
// of its parent.
func (t *tracer) end() {
	t.depth--
	f := t.stack[t.depth]
	d := t.now() - f.start
	a := &t.aggs[f.kind]
	a.count++
	a.total += d
	a.self += d - f.child
	a.hist[bucket(d)]++
	if t.depth > 0 {
		t.stack[t.depth-1].child += d
	}
}

func bucket(ns int64) int {
	if ns < 4 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	return 4*(e-1) + int(ns>>(e-2)&3)
}

// bucketMid is the midpoint of bucket b's nanosecond range.
func bucketMid(b int) float64 {
	if b < 4 {
		return float64(b)
	}
	e, sub := b/4+1, int64(b%4)
	lo := (4 + sub) << (e - 2)
	return float64(lo) + float64(int64(1)<<(e-2))/2
}

// quantile estimates the q-quantile of a span kind's durations in ns.
func (a *spanAgg) quantile(q float64) float64 {
	if a.count == 0 {
		return 0
	}
	rank := uint64(q*float64(a.count-1)) + 1
	var seen uint64
	for b, n := range a.hist {
		seen += n
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(histBuckets - 1)
}

// tracedScheduler wraps a scheduler: every callback is a span, and the
// context it receives is wrapped so Start calls nest inside it. It does
// not forward sched.QueueReporter: the simulator reads that only when
// sampling a time series, which no workload does.
type tracedScheduler struct {
	inner sched.Scheduler
	tr    *tracer
	// The simulator hands the same context to every callback; its
	// wrapper is built once.
	lastCtx, wrapped sched.Context
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) OnSubmit(ctx sched.Context, j *core.Job) {
	c := s.callback(ctx, spanSubmit)
	s.inner.OnSubmit(c, j)
	s.done()
}

func (s *tracedScheduler) OnFinish(ctx sched.Context, j *core.Job) {
	c := s.callback(ctx, spanFinish)
	s.inner.OnFinish(c, j)
	s.done()
}

func (s *tracedScheduler) OnChange(ctx sched.Context) {
	c := s.callback(ctx, spanChange)
	s.inner.OnChange(c)
	s.done()
}

func (s *tracedScheduler) callback(ctx sched.Context, k spanKind) sched.Context {
	if ctx != s.lastCtx {
		s.lastCtx, s.wrapped = ctx, wrapContext(ctx, s.tr)
	}
	s.tr.begin(k)
	s.tr.stack[s.tr.depth-1].starts = s.tr.starts
	return s.wrapped
}

func (s *tracedScheduler) done() {
	if s.tr.starts == s.tr.stack[s.tr.depth-1].starts {
		s.tr.fruitless++
	}
	s.tr.end()
}

// tracedCtx counts and times the calls a scheduler makes into the
// machine. Every other Context method is promoted from the inner one,
// StartShared included: no workload runs the gang scheduler.
type tracedCtx struct {
	sched.Context
	tr *tracer
}

func (c *tracedCtx) CanStart(j *core.Job, size int) bool {
	c.tr.canStart++
	return c.Context.CanStart(j, size)
}

func (c *tracedCtx) Start(j *core.Job, size int) {
	c.tr.starts++
	c.tr.begin(spanStart)
	c.Context.Start(j, size)
	c.tr.end()
}

func (c *tracedCtx) Running() []sched.RunningJob {
	c.tr.runningReads++
	return c.Context.Running()
}

// wrapContext returns a traced context that implements exactly the
// epoch interfaces inner implements. The backfillers look the epochs up
// by type assertion and fall back to element-wise comparisons without
// them, so a wrapper that hid an epoch would trace a different program,
// and one that invented an epoch would break the fallback contexts.
func wrapContext(inner sched.Context, tr *tracer) sched.Context {
	c := &tracedCtx{Context: inner, tr: tr}
	re, hasRE := inner.(sched.RunEpoch)
	we, hasWE := inner.(sched.WindowEpoch)
	qe, hasQE := inner.(sched.QueueEpoch)
	switch {
	case hasRE && hasWE && hasQE:
		return struct {
			*tracedCtx
			sched.RunEpoch
			sched.WindowEpoch
			sched.QueueEpoch
		}{c, re, we, qe}
	case hasRE && hasWE:
		return struct {
			*tracedCtx
			sched.RunEpoch
			sched.WindowEpoch
		}{c, re, we}
	case hasRE && hasQE:
		return struct {
			*tracedCtx
			sched.RunEpoch
			sched.QueueEpoch
		}{c, re, qe}
	case hasWE && hasQE:
		return struct {
			*tracedCtx
			sched.WindowEpoch
			sched.QueueEpoch
		}{c, we, qe}
	case hasRE:
		return struct {
			*tracedCtx
			sched.RunEpoch
		}{c, re}
	case hasWE:
		return struct {
			*tracedCtx
			sched.WindowEpoch
		}{c, we}
	case hasQE:
		return struct {
			*tracedCtx
			sched.QueueEpoch
		}{c, qe}
	}
	return c
}

// tracedObserver times the metrics collector's per-outcome work.
type tracedObserver struct {
	inner sim.Observer
	tr    *tracer
}

func (o tracedObserver) Observe(out metrics.Outcome) {
	o.tr.begin(spanObserve)
	o.inner.Observe(out)
	o.tr.end()
}

// tracedStream times the trace reader's per-job pull.
type tracedStream struct {
	inner core.JobStream
	tr    *tracer
}

func (s tracedStream) Next() (*core.Job, error) {
	s.tr.begin(spanNext)
	j, err := s.inner.Next()
	s.tr.end()
	return j, err
}

// scheduler, observer and stream wrap one layer's entry point for the
// traced phase; on a nil *tracer (the untraced ops) they return their
// argument unchanged.
func (t *tracer) scheduler(s sched.Scheduler) sched.Scheduler {
	if t == nil {
		return s
	}
	return &tracedScheduler{inner: s, tr: t}
}

func (t *tracer) observer(o sim.Observer) sim.Observer {
	if t == nil {
		return o
	}
	return tracedObserver{inner: o, tr: t}
}

func (t *tracer) stream(js core.JobStream) core.JobStream {
	if t == nil {
		return js
	}
	return tracedStream{inner: js, tr: t}
}

// count adds one simulation's jobs and events to the traced totals.
func (t *tracer) count(jobs int, events uint64) {
	if t != nil {
		t.jobs += uint64(jobs)
		t.events += events
	}
}

// span runs f inside a span of kind k when tracing.
func (t *tracer) span(k spanKind, f func()) {
	if t == nil {
		f()
		return
	}
	t.begin(k)
	f()
	t.end()
}
