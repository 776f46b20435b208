package sim

import (
	"fmt"

	"parsched/internal/core"
	"parsched/internal/debugchecks"
)

// verifyRunOrder cross-validates the runOrder mirror against the
// running set: same membership, strictly sorted by runBefore
// ((ExpEnd, job ID) — the order Running() promises). It is called
// after every insertRunning/removeRunning when the debugchecks build
// tag is set; the O(n)-per-transition cost is why it is not on by
// default.
func (sm *Instance) verifyRunOrder() {
	if len(sm.runOrder) != len(sm.running) {
		panic(fmt.Sprintf("sim: runOrder has %d entries, running set has %d",
			len(sm.runOrder), len(sm.running)))
	}
	for i, rs := range sm.runOrder {
		if got := sm.running[rs.job.ID]; got != rs {
			panic(fmt.Sprintf("sim: runOrder entry %d (job %d) diverges from the running set",
				i, rs.job.ID))
		}
		if i > 0 && !runBefore(sm.runOrder[i-1], rs) {
			panic(fmt.Sprintf(
				"sim: runOrder not sorted at %d: job %d (expEnd %d) before job %d (expEnd %d)",
				i, sm.runOrder[i-1].job.ID, sm.runOrder[i-1].expEnd, rs.job.ID, rs.expEnd))
		}
	}
}

// assertRunOrder is the shared guard: a no-op unless the debugchecks
// build tag is set (Enabled is a constant, so the call compiles away).
func (sm *Instance) assertRunOrder() {
	if debugchecks.Enabled {
		sm.verifyRunOrder()
	}
}

// poisonJob overwrites a recycled job slot with values no valid job
// has — a negative ID, a size above the machine's total nodes and
// negative times — so a scheduler that reads a job after its final
// OnFinish has returned diverges instead of silently reading a stale
// copy. terminate calls it when the debugchecks build tag is set.
func poisonJob(j *core.Job, total int) {
	*j = core.Job{ID: -j.ID, Submit: -1, Size: total + 1, Runtime: -1, Estimate: -1}
}
