// Package sched implements the machine-scheduler families the paper's
// evaluation methodology targets: FCFS and priority-queue variants
// (SJF, LJF, LXF, first-fit), EASY and conservative backfilling,
// gang scheduling (time slicing with an Ousterhout matrix), plus
// reservation-aware and outage-aware variants of the backfillers and a
// moldable-job adapter.
//
// Schedulers are event-driven plugins: the simulator (internal/sim)
// owns time and resources and invokes a Scheduler on job submission,
// job completion, and node-availability changes. The Scheduler reacts
// by starting jobs through the Context. This mirrors the paper's
// machine-scheduler definition: "As input they receive characteristic
// data from a stream of independent jobs ... Machine schedulers must
// deal with the on-line character of job submission and with a
// potential inaccuracy of job submission data, like the estimated
// execution time of a job."
package sched

import "parsched/internal/core"

// RunningJob is the scheduler-visible state of a started job.
type RunningJob struct {
	Job *core.Job
	// Size is the allocated processor count (differs from Job.Size for
	// moldable starts).
	Size int
	// Start is when the job began.
	Start int64
	// ExpEnd is the expected completion (start + the estimate the
	// scheduler was given). The actual completion may be earlier; a
	// running job whose ExpEnd has passed is "overdue" and schedulers
	// must treat its release time as unknown-but-imminent.
	ExpEnd int64
}

// Window is a known future (or ongoing) capacity reduction: an
// announced outage or an accepted advance reservation.
type Window struct {
	Start, End int64
	Procs      int // processors unavailable during the window
}

// Reservation is an advance reservation request: Procs processors,
// dedicated, over [Start, End). Reservations arrive from co-allocating
// meta-schedulers (paper Section 3). Announced is when the request
// became known to the machine scheduler (0 = before the workload
// started).
type Reservation struct {
	ID         int64
	Procs      int
	Start, End int64
	Announced  int64
}

// Context is the machine abstraction a scheduler manipulates. All
// methods are non-blocking and valid only during a callback.
//
// Slices returned by Running, Outages, and Reservations are reused
// buffers owned by the Context: they are valid only until the next
// call of the same method, so schedulers must consume them within the
// current callback and never retain them.
type Context interface {
	// Now is the current time in seconds.
	Now() int64
	// TotalProcs is the number of currently functional processors.
	TotalProcs() int
	// FreeProcs is the number of free functional processors.
	FreeProcs() int
	// CanStart reports whether j could start right now on size
	// processors (capacity and per-node memory both satisfiable).
	CanStart(j *core.Job, size int) bool
	// Start begins j now on size processors. It panics if CanStart is
	// false — schedulers must check first.
	Start(j *core.Job, size int)
	// Running lists running jobs sorted by ascending ExpEnd. The
	// returned slice is only valid until the next Running call.
	Running() []RunningJob
	// Estimate returns the runtime estimate the scheduler is allowed
	// to see for j (the simulator may inject estimate error here).
	Estimate(j *core.Job) int64
	// Outages lists announced capacity-reduction windows that have not
	// ended (known maintenance, detected ongoing failures).
	Outages() []Window
	// Reservations lists accepted advance reservations that have not
	// ended.
	Reservations() []Window
	// StartShared begins j now in time-shared mode at the given rate
	// (fraction of full speed) without claiming dedicated processors.
	// Used by the gang scheduler, which does its own space accounting.
	StartShared(j *core.Job, rate float64)
	// SetRate changes the execution rate of a running shared job.
	SetRate(j *core.Job, rate float64)
}

// WindowEpoch is optionally implemented by Contexts that can stamp
// their window sets: the stamp advances whenever Outages() or
// Reservations() would return different contents, so equal stamps let
// profile builders reuse window-derived state without re-reading (or
// re-comparing) the sets. Contexts without it fall back to element-wise
// comparison.
type WindowEpoch interface {
	WindowsEpoch() uint64
}

// RunEpoch is the running-set analog of WindowEpoch: the stamp advances
// whenever Running() would return different contents (a job starts or
// terminates — the scheduler-visible ExpEnd is fixed at start time), so
// equal stamps let profile builders skip both the Running() read and the
// element-wise comparison against their snapshot.
type RunEpoch interface {
	RunningEpoch() uint64
}

// QueueEpoch is optionally implemented by Contexts that can stamp job
// deliveries: the stamp advances by exactly one for every OnSubmit the
// context dispatches (fresh submittals and kill-requeues alike). Since
// a scheduler appends each delivered job to its queue tail, a ledger
// that recorded the stamp alongside its queue length can verify "the
// queue I checked is a prefix of the queue I see" in O(1):
// deliveries-since-commit must equal the length growth, provided the
// scheduler separately knows nothing was removed (it owns removals —
// they only happen when it starts a job). Contexts without the stamp
// fall back to an element-wise ID comparison of the walked jobs.
type QueueEpoch interface {
	SubmitEpoch() uint64
}

// Scheduler is an online machine scheduler.
type Scheduler interface {
	// Name identifies the scheduler in tables.
	Name() string
	// OnSubmit is invoked when a job arrives.
	OnSubmit(ctx Context, j *core.Job)
	// OnFinish is invoked when a job completes or is dropped for good
	// (a killed job that restarts is handed to OnSubmit again). The job
	// may be reused once OnFinish returns — a streaming replay recycles
	// its storage for a later job — so state a scheduler keeps past the
	// call is keyed by job ID, never by the pointer.
	OnFinish(ctx Context, j *core.Job)
	// OnChange is invoked when capacity changes for any other reason:
	// nodes fail or recover, reservations are accepted, begin, or end.
	OnChange(ctx Context)
}

// QueueReporter is implemented by schedulers that expose their backlog
// (used by the simulator to detect never-started jobs and by metrics).
type QueueReporter interface {
	Queued() []*core.Job
}

// estimateOf returns the scheduler-visible expected end of a running
// job, clamped to be in the future (overdue jobs are treated as
// releasing one second from now — the standard handling for estimate
// overruns).
func overdueClamp(now, expEnd int64) int64 {
	if expEnd <= now {
		return now + 1
	}
	return expEnd
}
