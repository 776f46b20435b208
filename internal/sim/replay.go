package sim

// The replay kernel behind Run and RunStream: one machine, one arrival
// pump pulling jobs from a core.JobStream, the injected outage,
// reservation and sampling streams, and one collector.

import (
	"fmt"
	"slices"

	"parsched/internal/core"
	"parsched/internal/des"
	"parsched/internal/metrics"
	"parsched/internal/outage"
	"parsched/internal/sched"
)

// newReplay builds the single machine a replay runs on. The pump keeps
// one arrival in flight, so the peak pending-event population is one
// finish event per running job plus the injected streams — not one
// event per trace job; pre-sizing the engine for that makes the run
// allocation-free in steady state. Under DiscardOutcomes the instance
// deletes each final outcome once observers have it and reuses its
// record, so the outcome map holds only the jobs in flight. A machine
// beyond core.MaxMachine is an error before the engine is sized.
func newReplay(name string, maxNodes int, s sched.Scheduler, opts Options) (*Instance, error) {
	if err := core.CheckMachine(maxNodes); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	engine := des.NewEngine(maxNodes + 2*len(opts.Reservations) + 64)
	sm, err := NewInstance(engine, name, maxNodes, s, opts)
	if err != nil {
		return nil, err
	}
	sm.pruneFinal = opts.DiscardOutcomes
	return sm, nil
}

// replay arms the arrival pump over js, wires the outage log,
// reservations and sampling, runs the engine to drain (or to the
// horizon) and collects the result.
func (sm *Instance) replay(js core.JobStream) (*Result, error) {
	engine := sm.engine
	pump := &arrivalPump{sm: sm, js: js}
	pump.fire = func() { pump.arrive() } //schedlint:allow escape once per run: the arrival callback every arrival instant re-arms
	first, err := pump.pull()
	if err != nil {
		return nil, err
	}
	if first != nil {
		pump.arm(first)
	}

	// Outage events: announcements make windows visible; node
	// transitions batched by timestamp change the machine.
	if sm.opts.Outages != nil {
		if err := scheduleOutages(engine, sm, sm.opts.Outages); err != nil {
			return nil, err
		}
	}
	// Reservation events: become visible at announcement, claim
	// processors at start, release at end.
	for _, r := range sm.opts.Reservations {
		r := r
		announce := min(max(r.Announced, 0), r.Start)
		engine.At(announce, des.PriorityOutage, func() { sm.Reserve(r) })
	}
	scheduleSampling(engine, sm, sm.opts)

	if sm.opts.Horizon > 0 {
		engine.RunUntil(sm.opts.Horizon)
	} else {
		engine.Run()
	}
	if pump.err != nil {
		return nil, pump.err
	}
	return pump.collect()
}

// arrivalPump is the replay's arrival cursor: each arrival event
// submits its job, then keeps pulling and submitting while the next job
// is due at the same instant (stream order preserved), and re-arms for
// the next distinct submit time — so the engine never holds more than
// one pending arrival, and one event fires per arrival instant. Its
// PriorityTraceArrival class orders those batches before same-instant
// feedback releases. The callback is bound once per run, so an arrival
// costs no allocation.
type arrivalPump struct {
	sm *Instance
	js core.JobStream
	// yielded counts the jobs the stream has handed over, dependents
	// skipped under Feedback included.
	yielded    int
	prevSubmit int64
	pending    *core.Job // scheduled but not yet submitted
	err        error
	fire       func() // arrive, bound once per run
}

// pull takes the next job to arrive off the stream, enforcing the
// JobStream contract; (nil, nil) at end of stream. When the instance
// owns its jobs (RunStream) it returns a copy in a slab slot, so the
// stream may reuse its job on the next call. Under Feedback (Run only)
// it passes over dependents, which Run registered with AwaitPredecessor.
func (p *arrivalPump) pull() (*core.Job, error) {
	for {
		j, err := p.js.Next()
		if err != nil || j == nil {
			if err == nil {
				p.ended()
			}
			return nil, err
		}
		p.yielded++
		if j.ID != int64(p.yielded) {
			return nil, fmt.Errorf("sim: stream job %d arrived in position %d; IDs must be sequential from 1", j.ID, p.yielded)
		}
		if j.Submit < p.prevSubmit {
			return nil, fmt.Errorf("sim: stream job %d submitted at %d, before predecessor's %d", j.ID, j.Submit, p.prevSubmit)
		}
		if j.Size < 1 || j.Size > p.sm.machine.Total() {
			return nil, fmt.Errorf("sim: stream job %d: size %d outside machine of %d nodes", j.ID, j.Size, p.sm.machine.Total())
		}
		if j.Runtime < 0 {
			return nil, fmt.Errorf("sim: stream job %d: negative runtime %d", j.ID, j.Runtime)
		}
		if err := j.CheckTimes(); err != nil {
			return nil, fmt.Errorf("sim: stream %w", err)
		}
		p.prevSubmit = j.Submit
		if p.sm.opts.Feedback && j.PrecedingJob > 0 {
			continue
		}
		if p.sm.ownsJobs {
			slot := p.sm.jobSlab.get() //schedlint:allow escape slab refill, inlined here: one block per 256 jobs of peak in-flight population
			*slot = *j
			j = slot
		}
		return j, nil
	}
}

// ended marks the stream exhausted. No job slot is drawn after that,
// and no outcome record either unless feedback jobs are still to be
// released, so the slabs stop keeping what the rest of the run frees.
func (p *arrivalPump) ended() {
	p.sm.jobSlab.done = true
	p.sm.outcomeSlab.done = !p.sm.opts.Feedback
}

// arm schedules j's arrival event.
func (p *arrivalPump) arm(j *core.Job) {
	p.pending = j
	p.sm.engine.At(j.Submit, des.PriorityTraceArrival, p.fire)
}

// arrive is the arrival event: it submits the pending job and every
// later one due at the same instant, then arms the next instant.
func (p *arrivalPump) arrive() {
	now := p.sm.engine.Now()
	j := p.pending
	p.pending = nil
	for {
		p.sm.submit(j, now)
		next, err := p.pull()
		if err != nil {
			p.err = err
			return
		}
		if next == nil {
			return
		}
		if next.Submit != now {
			p.arm(next)
			return
		}
		j = next
	}
}

// collect assembles the result once the engine stops. It first drains
// the stream tail the horizon left unpulled, so NeverSubmitted is every
// job the stream yielded minus the fresh submittals: the cut-off
// arrivals plus the feedback jobs whose predecessor never terminated in
// time. Residual outcomes (jobs still queued or running) are flushed to
// observers in job-ID order; final outcomes went out at event time, so
// observers see every submitted job exactly once.
func (p *arrivalPump) collect() (*Result, error) {
	sm := p.sm
	if p.pending != nil {
		for {
			j, err := p.js.Next()
			if err != nil {
				return nil, err
			}
			if j == nil {
				break
			}
			p.yielded++
		}
	}
	res := &Result{
		Scheduler: sm.schedule.Name(), Workload: sm.Name, Events: sm.engine.Processed,
		NeverSubmitted: p.yielded - sm.submitted, Reservations: sm.resvResults,
	}
	if sm.opts.DiscardOutcomes {
		// Pruning left only the residual outcomes in the map.
		ids := make([]int64, 0, len(sm.outcomes))
		for id := range sm.outcomes {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			sm.settle(*sm.outcomes[id])
		}
		return res, nil
	}
	// Submitted jobs hold IDs within 1..yielded, so walking the IDs keeps
	// the outcomes in order without sorting the map's keys.
	res.Outcomes = make([]metrics.Outcome, 0, len(sm.outcomes))
	for id := int64(1); id <= int64(p.yielded); id++ {
		if o, ok := sm.outcomes[id]; ok {
			res.Outcomes = append(res.Outcomes, sm.settle(*o))
		}
	}
	return res, nil
}

// settle returns an outcome as the run leaves it. A job still queued or
// running is a residual: it gets its start time if running, and goes to
// the observers now (dropped jobs went out when they were dropped).
func (sm *Instance) settle(o metrics.Outcome) metrics.Outcome {
	if o.End < 0 {
		if rs, running := sm.running[o.JobID]; running {
			o.Start = rs.start
		}
		if !o.Dropped {
			sm.emit(o)
		}
	}
	return o
}

// scheduleSampling installs the recurring instrumentation event that
// feeds SampleObservers. The tick reschedules itself only while live
// events remain, so sampling covers the whole run without keeping the
// engine alive afterwards.
func scheduleSampling(engine *des.Engine, sm *Instance, opts Options) {
	if opts.SampleEvery <= 0 {
		return
	}
	var samplers []SampleObserver
	for _, ob := range opts.Observers {
		if so, ok := ob.(SampleObserver); ok {
			samplers = append(samplers, so)
		}
	}
	if len(samplers) == 0 {
		return
	}
	interval := opts.SampleEvery
	var tick func()
	tick = func() {
		sm.recordSample(samplers)
		if engine.Live() {
			engine.After(interval, des.PrioritySample, tick)
		}
	}
	engine.At(0, des.PrioritySample, tick)
}

// scheduleOutages wires an outage log into an instance: announcement
// events (scheduler visibility) plus batched node up/down transitions.
// Before scheduling anything it rejects a record that names a node
// outside the machine, or that ends before it starts: its up event
// would come first and free a node under the job running there.
func scheduleOutages(engine *des.Engine, sm *Instance, log *outage.Log) error {
	nodes := int64(sm.machine.Total())
	for _, rec := range log.Records {
		if rec.End < rec.Start {
			return fmt.Errorf("sim: outage %d ends at %d, before its start at %d", rec.ID, rec.End, rec.Start)
		}
		for _, n := range rec.Nodes {
			if n < 0 || n >= nodes {
				return fmt.Errorf("sim: outage %d names node %d, outside the machine's %d nodes", rec.ID, n, nodes)
			}
		}
	}
	for _, rec := range log.Records {
		rec := rec
		announced := rec.Announced
		if announced < 0 {
			announced = 0
		}
		engine.At(announced, des.PriorityOutage, func() {
			sm.announceOutage(sched.Window{
				Start: rec.Start, End: rec.End, Procs: len(rec.Nodes),
			}, rec.Announced)
		})
	}
	evs := outage.Events(log)
	for i := 0; i < len(evs); {
		k := i
		for k < len(evs) && evs[k].Time == evs[i].Time {
			k++
		}
		var downs, ups []int
		for _, ev := range evs[i:k] {
			if ev.Down {
				downs = append(downs, int(ev.Node))
			} else {
				ups = append(ups, int(ev.Node))
			}
		}
		// A batch from before the log starts applies at time 0, ahead of
		// the first arrival. Dropping it would drop an outage's down but
		// keep its up, which frees a node under the job running there.
		engine.At(max(evs[i].Time, 0), des.PriorityOutage, func() { sm.applyNodeEvents(downs, ups) })
		i = k
	}
	return nil
}
