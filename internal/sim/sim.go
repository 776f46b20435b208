// Package sim drives machine-scheduler simulations: it replays a
// workload (open loop, or closed loop honouring the standard format's
// preceding-job/think-time feedback fields) against a scheduler on a
// simulated machine, optionally injecting the outage log of Section 2.2
// (killing jobs on failed nodes and restarting them, exactly the IBM SP
// behaviour the paper describes) and advance-reservation streams for
// the metacomputing experiments.
//
// The simulator owns time (internal/des), resources
// (internal/cluster), and job lifecycles; the scheduler plugs in via
// the internal/sched interfaces. All runs are deterministic. The
// single-machine entry points are Run (a materialized workload) and
// RunStream (a pull-based job stream); both are thin wrappers over one
// replay kernel, Run feeding it a slice-backed stream. Multi-machine
// grids assemble Instances directly (see internal/meta).
package sim

import (
	"fmt"

	"parsched/internal/core"
	"parsched/internal/des"
	"parsched/internal/metrics"
	"parsched/internal/outage"
	"parsched/internal/sched"
)

// MaxRestarts caps outage-driven restarts per job before the simulator
// drops the job as permanently killed.
const MaxRestarts = 100

// reservationOwner offsets reservation IDs into their own owner space
// so they never collide with job IDs on the cluster.
const reservationOwner int64 = 1 << 40

// Options configure a run.
type Options struct {
	// Feedback replays preceding-job dependencies as a closed loop: a
	// dependent job is submitted ThinkTime seconds after its
	// predecessor terminates, rather than at its recorded submit time.
	Feedback bool
	// Outages injects the outage log (same time base as the workload).
	// A replay fails, before its first event, on a record that names a
	// node outside the machine or ends before it starts. An outage that
	// began before the log takes its nodes down at time 0.
	Outages *outage.Log
	// Reservations injects advance-reservation requests.
	Reservations []sched.Reservation
	// NodeMem configures per-node memory (KB); nil means uniform
	// effectively-infinite memory. Length must equal the workload's
	// MaxNodes when set.
	NodeMem []int64
	// MemAware makes allocation honour job ReqMemPerProc.
	MemAware bool
	// PerfectEstimates makes the scheduler see actual runtimes instead
	// of user estimates.
	PerfectEstimates bool
	// DropKilled abandons jobs killed by outages instead of restarting
	// them.
	DropKilled bool
	// Horizon stops the simulation at this time (0 = run to drain).
	Horizon int64
	// Observers receive every job outcome exactly once: final outcomes
	// (completion or permanent drop) at the instant they happen, and
	// residual outcomes (jobs still queued or running when the run
	// ends) during collection. A metrics.Collector is the canonical
	// observer; attaching one makes a full Report available without
	// retaining the outcome slice.
	Observers []Observer
	// SampleEvery, when > 0, records a time-series snapshot
	// (utilization, queue length, backlog) every SampleEvery seconds
	// to each observer that implements SampleObserver.
	SampleEvery int64
	// DiscardOutcomes skips retaining per-job outcomes on the Result —
	// observers become the only consumers, which keeps memory O(1) on
	// million-job replays. Result.Report is meaningless in this mode;
	// use an attached Collector's Report instead.
	DiscardOutcomes bool
}

// Observer receives job outcomes as the simulation produces them —
// the streaming alternative to reading Result.Outcomes after the run.
type Observer interface {
	Observe(o metrics.Outcome)
}

// SampleObserver is implemented by observers that also want the
// machine-level time series (metrics.Collector is one).
type SampleObserver interface {
	ObserveSample(s metrics.Sample)
}

// ReservationOutcome records how an advance reservation fared.
type ReservationOutcome struct {
	Reservation sched.Reservation
	// Granted reports whether the full processor count was allocated
	// at the reserved start time.
	Granted bool
}

// Result is the output of a run.
type Result struct {
	Scheduler string
	Workload  string
	Outcomes  []metrics.Outcome
	// NeverSubmitted counts the workload's jobs that never reached the
	// scheduler: arrivals the horizon cut off, and feedback jobs whose
	// predecessor never terminated in time.
	NeverSubmitted int
	Reservations   []ReservationOutcome
	// Events is the DES event count (a cost indicator for benchmarks).
	Events uint64
}

// Report computes the aggregate metrics for the run from the retained
// outcomes. Under Options.DiscardOutcomes there is nothing retained —
// attach a metrics.Collector observer and use its Report instead.
func (r *Result) Report(procs int) metrics.Report {
	return metrics.Compute(r.Scheduler, r.Workload, r.Outcomes, procs)
}

// state of one running job.
type runState struct {
	job    *core.Job
	size   int
	start  int64
	expEnd int64
	shared bool
	// remaining is work left in dedicated-seconds; meaningful for
	// shared jobs whose rate varies.
	remaining  float64
	rate       float64
	lastUpdate int64
	finish     des.Handle
	// fire is the finish callback bound to this runState, created once
	// and kept across pool recycling: rescheduling a finish (every gang
	// rate change does one) then costs no closure allocation. It reads
	// the job identity at fire time, and cancelled events never fire,
	// so pool reuse cannot misdeliver a finish.
	fire func()
}

// Run simulates workload w under scheduler s. The workload is cloned;
// the caller's copy is never mutated (schedulers may mold jobs). The
// clone replays through the same kernel as RunStream, as a slice-backed
// job stream.
func Run(w *core.Workload, s sched.Scheduler, opts Options) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid workload: %w", err)
	}
	w = w.Clone()
	sm, err := newReplay(w.Name, w.MaxNodes, s, opts)
	if err != nil {
		return nil, err
	}
	if opts.Feedback {
		// Every dependent waits for its predecessor from the start, since
		// a predecessor may terminate before the pump reaches its
		// dependent; the pump then skips dependents.
		for _, j := range w.Jobs {
			if j.PrecedingJob > 0 {
				if j.ThinkTime < 0 || j.ThinkTime > core.MaxTime {
					return nil, fmt.Errorf("sim: invalid workload: job %d: think time %d s outside [0, %d]", j.ID, j.ThinkTime, core.MaxTime)
				}
				sm.AwaitPredecessor(j)
			}
		}
	}
	return sm.replay(core.NewSliceStream(w.Jobs))
}

// RunStream simulates the jobs pulled from js under scheduler s on a
// machine of maxNodes nodes. The stream must yield jobs in
// non-decreasing submit order with IDs sequential from 1 (the contract
// core.JobStream documents and trace.JobReader guarantees); violations
// abort the run with an error. Only one arrival is in flight at a time,
// so with DiscardOutcomes a replay holds state for the jobs queued or
// running, never for the whole trace.
//
// Like Run, RunStream never mutates the caller's jobs (schedulers may
// mold jobs): the arrival pump copies each job it pulls into storage
// the simulator owns, so js may reuse one job across Next calls. A
// slot is recycled once its job's final OnFinish has returned, and
// with DiscardOutcomes so is each final outcome's record, so a replay
// allocates per job in flight, not per job in the trace.
//
// Feedback replay is not supported: a closed loop needs every dependent
// registered before its predecessor can terminate, and a pull-based
// stream only hands over a dependent when its recorded submit time
// comes. Materialize the workload and use Run for feedback studies.
//
//schedlint:hotpath entry point: streaming replay; taints des/sched/cluster/metrics/swf/trace cross-package
func RunStream(name string, maxNodes int, js core.JobStream, s sched.Scheduler, opts Options) (*Result, error) {
	if opts.Feedback {
		return nil, fmt.Errorf("sim: streaming replay does not support feedback (closed-loop) mode; use Run")
	}
	sm, err := newReplay(name, maxNodes, s, opts)
	if err != nil {
		return nil, err
	}
	sm.ownsJobs = true
	return sm.replay(js)
}
