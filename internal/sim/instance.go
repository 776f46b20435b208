package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"parsched/internal/cluster"
	"parsched/internal/core"
	"parsched/internal/debugchecks"
	"parsched/internal/des"
	"parsched/internal/metrics"
	"parsched/internal/sched"
)

// Instance is one machine + machine scheduler living on a shared event
// engine. The single-machine entry points Run and RunStream wrap one
// Instance; the metacomputing layer (internal/meta) places several
// Instances on one engine and routes jobs between them — the Figure 1
// architecture.
type Instance struct {
	// Name labels the machine (site name in grids).
	Name string

	engine   *des.Engine
	machine  *cluster.Machine
	schedule sched.Scheduler
	opts     Options

	running  map[int64]*runState
	outcomes map[int64]*metrics.Outcome
	// outcomeSlab stores the outcome records; under pruneFinal each
	// record goes back to it once the outcome is final, so a pruning
	// replay allocates outcome storage only while its in-flight
	// population grows.
	outcomeSlab slab[metrics.Outcome]
	// ownsJobs is set by RunStream: the arrival pump copies every job it
	// pulls into jobSlab, and a job's slot goes back to the slab once its
	// final OnFinish has returned. Run's jobs live in its private clone
	// and other instances' jobs in their callers' storage, so neither is
	// copied or recycled.
	ownsJobs bool
	jobSlab  slab[core.Job]
	// runOrder mirrors running, kept sorted by (ExpEnd, job ID): the
	// order Running() promises. It is maintained incrementally on every
	// start/finish/kill instead of being re-sorted per scheduler
	// callback. ExpEnd is fixed at start time (rate changes alter the
	// actual finish event, not the scheduler-visible estimate), so
	// membership changes are the only mutations.
	runOrder []*runState
	// runBuf is the reused return buffer for Running(), valid only until
	// the next call — schedulers consume it within a single callback.
	runBuf []sched.RunningJob
	// rsPool recycles runState structs between jobs so a start costs no
	// allocation in steady state.
	rsPool []*runState
	// victimBuf is the reused victim accumulator for applyNodeEvents,
	// so an outage batch costs no allocation. Valid only within one
	// batch.
	victimBuf []int64
	// dependents maps predecessor ID -> dependent jobs awaiting it.
	dependents map[int64][]*core.Job

	// outages and resvs are the announced outage and accepted
	// reservation windows.
	outages windowList
	resvs   windowList
	// winEpoch stamps the visible window sets: it advances exactly when
	// their contents (can) change — on every window addition and every
	// memo-expiry rescan. Profile builders compare stamps instead of
	// window lists.
	winEpoch uint64
	// runEpoch stamps the running set the same way: it advances on every
	// runOrder membership change (the only mutations — ExpEnd is fixed at
	// start), so equal stamps mean Running() would repeat itself. The
	// contract is one-directional — equal stamps guarantee nothing
	// changed; unequal stamps promise nothing.
	runEpoch uint64
	// submitEpoch counts OnSubmit dispatches (fresh submittals and
	// kill-requeues alike) — the sched.QueueEpoch stamp that lets a
	// scheduler's reservation ledger prove its walked queue is a strict
	// prefix of the current one without comparing elements.
	submitEpoch uint64
	// submitted counts fresh submittals only (kill requeues excluded):
	// the replay kernel's NeverSubmitted is the stream's job count
	// minus it.
	submitted int

	resvResults []ReservationOutcome
	nextResvID  int64

	// pruneFinal deletes a job's outcome entry the moment its final
	// outcome is emitted (completion or permanent drop) and recycles the
	// record. The replay kernel sets it under DiscardOutcomes: observers
	// have already seen the outcome, nothing reads it later, and keeping
	// it would make the outcome map grow with the trace — the one
	// O(jobs) structure left in a streaming replay. The map then holds
	// only in-flight jobs.
	pruneFinal bool

	// StartHook observes every job start (final or not). Used by
	// wait-time predictors, which learn from observed waits.
	StartHook func(j *core.Job, submit, start int64)
}

type timedWindow struct {
	win       sched.Window
	announced int64
}

// windowList is one kind of capacity window (outages or reservations)
// as the scheduler sees it.
type windowList struct {
	wins []timedWindow
	// unsorted records that wins is no longer ascending by Start. Outage
	// logs and reservation calendars are built chronologically, so a
	// list usually stays sorted, and visibleWindows can then reslice its
	// expired prefix and bound its hidden suffix in O(visible) instead
	// of rescanning the whole list.
	unsorted bool
	// buf is the reused visible set, valid only until the next refresh;
	// it is exactly what a fresh scan would produce while now stays below
	// until (no window expires, crosses the planning horizon, or reaches
	// its announcement before then). add zeroes until.
	buf   []sched.Window
	until int64
}

// add appends a window announced at announced.
func (l *windowList) add(win sched.Window, announced int64) {
	if n := len(l.wins); n > 0 && win.Start < l.wins[n-1].win.Start {
		l.unsorted = true
	}
	l.wins = append(l.wins, timedWindow{win: win, announced: announced})
	l.until = 0
}

// refresh re-derives buf for now once the memo bound has passed and
// reports whether it did.
func (l *windowList) refresh(now int64) bool {
	if now < l.until {
		return false
	}
	l.wins, l.buf, l.until = visibleWindows(l.wins, l.buf[:0], now, !l.unsorted)
	return true
}

// NewInstance creates a machine of maxNodes nodes scheduled by s,
// attached to engine. A machine beyond core.MaxMachine is an error
// before anything is allocated.
func NewInstance(engine *des.Engine, name string, maxNodes int, s sched.Scheduler, opts Options) (*Instance, error) {
	if err := core.CheckMachine(maxNodes); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Instance{
		Name:       name,
		engine:     engine,
		machine:    cluster.New(maxNodes),
		schedule:   s,
		opts:       opts,
		running:    map[int64]*runState{},
		outcomes:   map[int64]*metrics.Outcome{},
		dependents: map[int64][]*core.Job{},
	}, nil
}

// SubmitAt schedules job j to arrive at time t.
//
//schedlint:hotpath entry point: arrival injection for meta grids
func (sm *Instance) SubmitAt(j *core.Job, t int64) {
	sm.engine.At(t, des.PriorityArrival, func() { sm.submit(j, t) })
}

// SubmitNow delivers job j immediately (valid during event callbacks;
// used by meta-schedulers dispatching at decision time).
func (sm *Instance) SubmitNow(j *core.Job) {
	sm.submit(j, sm.engine.Now())
}

// AwaitPredecessor registers j to be submitted ThinkTime seconds after
// its predecessor (by workload job ID) terminates on this instance.
func (sm *Instance) AwaitPredecessor(j *core.Job) {
	sm.dependents[j.PrecedingJob] = append(sm.dependents[j.PrecedingJob], j)
}

// QueueLen reports the scheduler's backlog if it exposes one.
func (sm *Instance) QueueLen() int {
	if qr, ok := sm.schedule.(sched.QueueReporter); ok {
		return len(qr.Queued())
	}
	return 0
}

// QueuedWork reports the processor-seconds of estimated work waiting in
// the queue — the load signal simple meta-schedulers use.
func (sm *Instance) QueuedWork() int64 {
	var total int64
	if qr, ok := sm.schedule.(sched.QueueReporter); ok {
		for _, j := range qr.Queued() {
			total += int64(j.Size) * sm.Estimate(j)
		}
	}
	for _, rs := range sm.running {
		rem := rs.expEnd - sm.engine.Now()
		if rem > 0 {
			total += int64(rs.size) * rem
		}
	}
	return total
}

// Outcome returns the outcome recorded for job id, if any.
func (sm *Instance) Outcome(id int64) (metrics.Outcome, bool) {
	o, ok := sm.outcomes[id]
	if !ok {
		return metrics.Outcome{}, false
	}
	return *o, true
}

// Outcomes returns copies of all outcomes recorded so far, in job-ID
// order for determinism.
func (sm *Instance) Outcomes() []metrics.Outcome {
	ids := make([]int64, 0, len(sm.outcomes))
	for id := range sm.outcomes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]metrics.Outcome, 0, len(ids))
	for _, id := range ids {
		out = append(out, *sm.outcomes[id])
	}
	return out
}

// ReservationOutcomes returns the reservation grant results so far.
func (sm *Instance) ReservationOutcomes() []ReservationOutcome {
	return append([]ReservationOutcome(nil), sm.resvResults...)
}

// announceOutage makes an outage window visible to the scheduler from
// the current instant (the replay kernel schedules these from the
// outage log).
func (sm *Instance) announceOutage(win sched.Window, announced int64) {
	sm.outages.add(win, announced)
	sm.winEpoch++
	sm.notifyChange()
}

// Reserve accepts an advance reservation: it becomes visible to the
// scheduler immediately, claims its processors at Start (recording
// whether the claim succeeded), and releases them at End. The returned
// ID identifies the reservation in outcomes.
func (sm *Instance) Reserve(r sched.Reservation) int64 {
	if r.ID == 0 {
		sm.nextResvID++
		r.ID = sm.nextResvID
	}
	sm.resvs.add(sched.Window{Start: r.Start, End: r.End, Procs: r.Procs}, sm.engine.Now())
	sm.winEpoch++
	sm.engine.At(r.Start, des.PriorityOutage, func() { sm.claimReservation(r) })
	sm.notifyChange()
	return r.ID
}

// ---------------------------------------------------------------------
// internals

// submit delivers a job to the scheduler, recording its effective
// submittal time (feedback shifts it relative to the workload file).
func (sm *Instance) submit(j *core.Job, effective int64) {
	o := sm.outcomeSlab.get() //schedlint:allow escape slab refill, inlined here: one block per 256 outcomes of peak in-flight population
	*o = metrics.Outcome{
		JobID: j.ID, User: j.User, Submit: effective,
		Start: -1, End: -1, Size: j.Size, Runtime: j.Runtime,
	}
	sm.outcomes[j.ID] = o
	sm.submitEpoch++
	sm.submitted++
	sm.schedule.OnSubmit(sm, j)
}

// emit streams one outcome to the registered observers. finishJob and
// the permanent-drop path call it at event time; collect flushes the
// residual (never-terminated) outcomes at the end of the run.
func (sm *Instance) emit(o metrics.Outcome) {
	for _, ob := range sm.opts.Observers {
		ob.Observe(o)
	}
}

// recordSample snapshots the machine for the time-series observers.
func (sm *Instance) recordSample(obs []SampleObserver) {
	util := 0.0
	if up := sm.machine.Up(); up > 0 {
		util = float64(sm.machine.InUse()) / float64(up)
	}
	s := metrics.Sample{
		Time:        sm.engine.Now(),
		Utilization: util,
		Queued:      sm.QueueLen(),
		Running:     len(sm.running),
		Backlog:     sm.QueuedWork(),
	}
	for _, ob := range obs {
		ob.ObserveSample(s)
	}
}

func (sm *Instance) notifyChange() {
	sm.schedule.OnChange(sm)
}

// applyNodeEvents processes a batch of same-instant node transitions,
// killing victims after all transitions are applied and notifying the
// scheduler once.
func (sm *Instance) applyNodeEvents(downs, ups []int) {
	// Batches are a handful of nodes, so deduplicating victims by linear
	// scan beats a map (and reusing the buffer keeps the outage path
	// allocation-free).
	ids := sm.victimBuf[:0]
	for _, n := range downs {
		victim := sm.machine.SetDown(n)
		if victim != cluster.NoOwner && victim < reservationOwner && !containsID(ids, victim) {
			ids = append(ids, victim)
		}
	}
	for _, n := range ups {
		sm.machine.SetUp(n)
	}
	sortIDs(ids)
	for _, id := range ids {
		sm.killJob(id)
	}
	sm.victimBuf = ids[:0]
	sm.notifyChange()
}

func containsID(ids []int64, id int64) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// sortIDs insertion-sorts an outage batch's victims: a handful of IDs,
// where it beats a general sort and allocates nothing. Large ID sets,
// such as Outcomes, use slices.Sort.
func sortIDs(ids []int64) {
	for i := 1; i < len(ids); i++ {
		for k := i; k > 0 && ids[k-1] > ids[k]; k-- {
			ids[k-1], ids[k] = ids[k], ids[k-1]
		}
	}
}

// killJob handles a job whose node failed: release its allocation,
// cancel its completion, account the lost work, and resubmit it (the
// paper: "Any job running on that node would have to be restarted").
func (sm *Instance) killJob(id int64) {
	rs, ok := sm.running[id]
	if !ok {
		return
	}
	now := sm.engine.Now()
	sm.machine.ReleaseQuiet(id)
	sm.engine.Cancel(rs.finish)
	delete(sm.running, id)
	sm.removeRunning(rs)

	o := sm.outcomes[id]
	o.Restarts++
	o.LostWork += int64(rs.size) * (now - rs.start)

	job := rs.job
	sm.recycleRunState(rs)
	if sm.opts.DropKilled || o.Restarts > MaxRestarts {
		o.Dropped = true
		o.Start, o.End = -1, -1
		sm.terminate(job, o)
		return
	}
	// Restart from scratch: hand the job back to the scheduler.
	sm.submitEpoch++
	sm.schedule.OnSubmit(sm, job)
}

// claimReservation allocates the reserved processors at start time.
func (sm *Instance) claimReservation(r sched.Reservation) {
	owner := reservationOwner + r.ID
	ok := sm.machine.Claim(owner, r.Procs)
	sm.resvResults = append(sm.resvResults, ReservationOutcome{Reservation: r, Granted: ok})
	if ok {
		sm.engine.At(r.End, des.PriorityOutage, func() {
			sm.machine.ReleaseQuiet(owner)
			sm.notifyChange()
		})
	}
	sm.notifyChange()
}

// ---------------------------------------------------------------------
// sched.Context implementation

// Now implements sched.Context.
func (sm *Instance) Now() int64 { return sm.engine.Now() }

// TotalProcs implements sched.Context.
func (sm *Instance) TotalProcs() int { return sm.machine.Up() }

// FreeProcs implements sched.Context.
func (sm *Instance) FreeProcs() int { return sm.machine.Free() }

// CanStart implements sched.Context.
func (sm *Instance) CanStart(_ *core.Job, size int) bool {
	return size >= 1 && sm.machine.Free() >= size
}

// Start implements sched.Context.
func (sm *Instance) Start(j *core.Job, size int) {
	if _, dup := sm.running[j.ID]; dup {
		panic(fmt.Sprintf("sim: job %d started twice", j.ID))
	}
	if !sm.machine.Claim(j.ID, size) {
		panic(fmt.Sprintf("sim: scheduler started job %d (size %d) without capacity", j.ID, size))
	}
	now := sm.engine.Now()
	actual := j.RuntimeOn(size)
	rs := sm.allocRunState()
	fire := rs.fire
	*rs = runState{
		job: j, size: size, start: now,
		expEnd:     now + sm.Estimate(j),
		remaining:  float64(actual),
		rate:       1,
		lastUpdate: now,
		fire:       fire,
	}
	rs.finish = sm.engine.At(now+actual, des.PriorityFinish, sm.fireFor(rs))
	sm.running[j.ID] = rs
	sm.insertRunning(rs)
	if sm.StartHook != nil {
		sm.StartHook(j, sm.outcomes[j.ID].Submit, now)
	}
}

// StartShared implements sched.Context.
func (sm *Instance) StartShared(j *core.Job, rate float64) {
	if _, dup := sm.running[j.ID]; dup {
		panic(fmt.Sprintf("sim: job %d started twice", j.ID))
	}
	now := sm.engine.Now()
	rs := sm.allocRunState()
	fire := rs.fire
	*rs = runState{
		job: j, size: j.Size, start: now,
		expEnd:     now + sm.Estimate(j),
		shared:     true,
		remaining:  float64(j.Runtime),
		rate:       0,
		lastUpdate: now,
		fire:       fire,
	}
	sm.running[j.ID] = rs
	sm.insertRunning(rs)
	if sm.StartHook != nil {
		sm.StartHook(j, sm.outcomes[j.ID].Submit, now)
	}
	if rate > 0 {
		sm.setRate(rs, rate)
	}
}

// SetRate implements sched.Context.
func (sm *Instance) SetRate(j *core.Job, rate float64) {
	rs, ok := sm.running[j.ID]
	if !ok || !rs.shared {
		panic(fmt.Sprintf("sim: SetRate on non-shared or unknown job %d", j.ID))
	}
	sm.setRate(rs, rate)
}

func (sm *Instance) setRate(rs *runState, rate float64) {
	now := sm.engine.Now()
	// Account progress at the old rate.
	rs.remaining -= float64(now-rs.lastUpdate) * rs.rate
	if rs.remaining < 0 {
		rs.remaining = 0
	}
	rs.lastUpdate = now
	rs.rate = rate
	sm.engine.Cancel(rs.finish)
	if rate <= 0 {
		return
	}
	dur := int64(math.Ceil(rs.remaining / rate))
	if dur < 0 {
		dur = 0
	}
	rs.finish = sm.engine.At(now+dur, des.PriorityFinish, sm.fireFor(rs))
}

// fireFor returns rs's cached finish callback, creating it on first
// use. The closure captures the runState, not a job ID: by the time it
// fires, rs still describes the job whose finish was scheduled (a
// terminated job's event is always either fired or cancelled before
// the runState returns to the pool).
func (sm *Instance) fireFor(rs *runState) func() {
	if rs.fire == nil {
		rs.fire = func() { sm.finishJob(rs.job.ID) }
	}
	return rs.fire
}

// RunningEpoch implements sched.RunEpoch.
func (sm *Instance) RunningEpoch() uint64 { return sm.runEpoch }

// SubmitEpoch implements sched.QueueEpoch.
func (sm *Instance) SubmitEpoch() uint64 { return sm.submitEpoch }

// Running implements sched.Context. The returned slice is a reused
// buffer, valid only until the next Running() call on this instance.
func (sm *Instance) Running() []sched.RunningJob {
	sm.runBuf = sm.runBuf[:0]
	for _, rs := range sm.runOrder {
		sm.runBuf = append(sm.runBuf, sched.RunningJob{Job: rs.job, Size: rs.size, Start: rs.start, ExpEnd: rs.expEnd})
	}
	return sm.runBuf
}

// allocRunState takes a runState from the pool, or allocates one. The
// caller overwrites every field.
func (sm *Instance) allocRunState() *runState {
	if n := len(sm.rsPool); n > 0 {
		rs := sm.rsPool[n-1]
		sm.rsPool[n-1] = nil
		sm.rsPool = sm.rsPool[:n-1]
		return rs
	}
	return &runState{}
}

// recycleRunState returns a terminated job's state to the pool. Only
// call once every read of rs (including scheduler callbacks that might
// observe it) has completed. The cached finish closure survives the
// reset — it is bound to the struct, not the departing job.
func (sm *Instance) recycleRunState(rs *runState) {
	fire := rs.fire
	*rs = runState{}
	rs.fire = fire
	sm.rsPool = append(sm.rsPool, rs)
}

// runBefore is the (ExpEnd, job ID) order of runOrder — the contract
// Running() documents.
func runBefore(a, b *runState) bool {
	if a.expEnd != b.expEnd {
		return a.expEnd < b.expEnd
	}
	return a.job.ID < b.job.ID
}

// insertRunning places rs into runOrder at its sorted position.
func (sm *Instance) insertRunning(rs *runState) {
	i := sort.Search(len(sm.runOrder), func(k int) bool { return runBefore(rs, sm.runOrder[k]) })
	sm.runOrder = append(sm.runOrder, nil)
	copy(sm.runOrder[i+1:], sm.runOrder[i:])
	sm.runOrder[i] = rs
	sm.runEpoch++
	sm.assertRunOrder()
}

// removeRunning deletes rs from runOrder. rs must be present; its sort
// key is immutable after insertion, so binary search finds it exactly.
func (sm *Instance) removeRunning(rs *runState) {
	i := sort.Search(len(sm.runOrder), func(k int) bool { return !runBefore(sm.runOrder[k], rs) })
	if i >= len(sm.runOrder) || sm.runOrder[i] != rs {
		panic(fmt.Sprintf("sim: job %d missing from running order", rs.job.ID))
	}
	copy(sm.runOrder[i:], sm.runOrder[i+1:])
	sm.runOrder[len(sm.runOrder)-1] = nil
	sm.runOrder = sm.runOrder[:len(sm.runOrder)-1]
	sm.runEpoch++
	sm.assertRunOrder()
}

// Estimate implements sched.Context.
func (sm *Instance) Estimate(j *core.Job) int64 {
	if sm.opts.PerfectEstimates {
		return j.Runtime
	}
	return j.EstimateOrRuntime()
}

// Outages implements sched.Context. The returned slice is a reused
// buffer, valid only until the next Outages() call on this instance.
func (sm *Instance) Outages() []sched.Window { return sm.visible(&sm.outages) }

// Reservations implements sched.Context. The returned slice is a
// reused buffer, valid only until the next Reservations() call.
func (sm *Instance) Reservations() []sched.Window { return sm.visible(&sm.resvs) }

// visible refreshes l for the current instant, advancing winEpoch if it
// rescanned, and returns its visible windows.
func (sm *Instance) visible(l *windowList) []sched.Window {
	if l.refresh(sm.engine.Now()) {
		sm.winEpoch++
	}
	return l.buf
}

// WindowsEpoch implements sched.WindowEpoch: it refreshes both window
// memos for the current instant and returns the stamp. Equal stamps
// across calls guarantee Outages() and Reservations() would return
// element-identical slices, letting profile builders reuse window work
// without re-reading the sets.
func (sm *Instance) WindowsEpoch() uint64 {
	sm.visible(&sm.outages)
	sm.visible(&sm.resvs)
	return sm.winEpoch
}

// PlanningHorizon bounds how far ahead capacity windows are exposed to
// schedulers. Windows starting beyond it cannot affect any job that
// could start now (estimates are capped far below it), and pruning them
// keeps profile building linear in the relevant future rather than in
// the whole reservation calendar.
const PlanningHorizon = 14 * 86400

// visibleWindows appends the currently scheduler-visible windows to buf
// (announced, not yet ended, within the planning horizon) and returns
// the filtered source list: windows whose End has passed are compacted
// out permanently, since simulation time only moves forward. The
// relative order of surviving windows — and therefore of the visible
// output — is preserved.
//
// The third result is the memo bound: the earliest future instant the
// visible set can change on its own — a visible window expiring, or a
// hidden one reaching its announcement or the planning horizon. Until
// then (and absent new windows) buf stays exact and callers skip the
// rescan entirely.
func visibleWindows(wins []timedWindow, buf []sched.Window, now int64, startSorted bool) ([]timedWindow, []sched.Window, int64) {
	until := int64(1) << 62
	if startSorted {
		return visibleWindowsSorted(wins, buf, now)
	}
	kept := 0
	for _, tw := range wins {
		if tw.win.End <= now {
			continue // expired for good
		}
		wins[kept] = tw
		kept++
		if tw.announced <= now && tw.win.Start <= now+PlanningHorizon {
			buf = append(buf, tw.win)
			if tw.win.End < until {
				until = tw.win.End
			}
		} else {
			// Hidden for now; it surfaces at its announcement or when
			// the horizon reaches its start, whichever is later. (A
			// hidden window expiring changes nothing visible, so its
			// End does not bound the memo.)
			at := tw.win.Start - PlanningHorizon
			if tw.announced > at {
				at = tw.announced
			}
			if at < until {
				until = at
			}
		}
	}
	return wins[:kept], buf, until
}

// visibleWindowsSorted is the fast path for Start-sorted window lists —
// the overwhelmingly common case, since outage logs and reservation
// streams arrive in chronological order. Sortedness buys two things the
// generic scan cannot have: the beyond-horizon suffix is located with
// one binary search instead of being walked every refresh, and the memo
// bound for that whole suffix collapses to a single conservative term
// (first hidden Start − horizon, ≤ every later surfacing time and > now,
// so the memo stays valid — it only re-scans sooner than strictly
// needed). Visible windows appended to buf are exactly those the
// generic path would append, in the same order, so decisions are
// bit-identical.
//
//schedlint:hotpath a window list re-derives its visible set here once its memo bound passes: 144 of 213 rescans per windows-burst-consw op, against 8,712 profile builds
func visibleWindowsSorted(wins []timedWindow, buf []sched.Window, now int64) ([]timedWindow, []sched.Window, int64) {
	until := int64(1) << 62
	lo := 0
	for lo < len(wins) && wins[lo].win.End <= now {
		lo++ // expired prefix: Start-sorted lists retire mostly from the front
	}
	wins = wins[lo:]
	hi := sort.Search(len(wins), func(i int) bool { return wins[i].win.Start > now+PlanningHorizon })
	if hi < len(wins) {
		// One bound covers the whole hidden suffix: the first hidden
		// window surfaces no earlier than Start-H, and every later one
		// no earlier than that (Starts ascend). Announcement times can
		// only push surfacing later, never earlier.
		if at := wins[hi].win.Start - PlanningHorizon; at < until {
			until = at
		}
	}
	kept := 0
	for i := 0; i < hi; i++ {
		tw := wins[i]
		if tw.win.End <= now {
			continue // expired for good
		}
		if kept != i {
			wins[kept] = tw
		}
		kept++
		if tw.announced <= now {
			buf = append(buf, tw.win)
			if tw.win.End < until {
				until = tw.win.End
			}
		} else if tw.announced < until {
			// In-horizon but not yet announced; surfaces at announcement.
			until = tw.announced
		}
	}
	n := len(wins)
	if kept < hi {
		copy(wins[kept:], wins[hi:])
	}
	return wins[:n-(hi-kept)], buf, until
}

// finishJob completes a running job.
func (sm *Instance) finishJob(id int64) {
	rs, ok := sm.running[id]
	if !ok {
		return
	}
	now := sm.engine.Now()
	if !rs.shared {
		sm.machine.ReleaseQuiet(id)
	}
	delete(sm.running, id)
	sm.removeRunning(rs)

	o := sm.outcomes[id]
	o.Start = rs.start
	o.End = now
	o.Size = rs.size
	o.Runtime = now - rs.start
	if rs.shared {
		// For time-shared jobs the dedicated-equivalent runtime is the
		// job's nominal work, not the stretched wall-clock.
		o.Runtime = rs.job.Runtime
	}
	job := rs.job
	sm.recycleRunState(rs)
	sm.terminate(job, o)
}

// terminate ends job for good (completion or permanent drop) with final
// outcome o: it releases the job's feedback dependents, hands o to the
// observers, tells the scheduler, and recycles the storage the
// simulator owns — o under pruneFinal, and the job's slot once OnFinish
// has returned.
func (sm *Instance) terminate(job *core.Job, o *metrics.Outcome) {
	sm.releaseDependents(job)
	sm.emit(*o)
	if sm.pruneFinal {
		delete(sm.outcomes, job.ID)
		sm.outcomeSlab.put(o) //schedlint:allow escape free list, inlined here: one block on its first free, then grown only with the peak in-flight population
	}
	sm.schedule.OnFinish(sm, job)
	if sm.ownsJobs {
		if debugchecks.Enabled {
			poisonJob(job, sm.machine.Total())
		}
		sm.jobSlab.put(job) //schedlint:allow escape free list, inlined here: one block on its first free, then grown only with the peak in-flight population
	}
}

// releaseDependents schedules the submittal of feedback jobs waiting on
// j's termination, ThinkTime seconds from now.
func (sm *Instance) releaseDependents(j *core.Job) {
	now := sm.engine.Now()
	for _, dep := range sm.dependents[j.ID] {
		dep := dep
		at := now + dep.ThinkTime
		sm.engine.At(at, des.PriorityArrival, func() { sm.submit(dep, at) })
	}
	delete(sm.dependents, j.ID)
}
